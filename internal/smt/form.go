package smt

import (
	"encoding/binary"
	"slices"

	satpkg "github.com/netverify/vmn/internal/sat"
)

type formKind int8

const (
	formFalse formKind = iota
	formTrue
	formAtom // a raw SAT literal
	formAnd
	formOr
	formNot
)

type formNode struct {
	kind     formKind
	lit      satpkg.Lit // for formAtom
	children []FormID
}

// FormID identifies an interned formula node within a Ctx.
type FormID int32

// Form is a handle to a boolean formula over the context's atoms.
type Form struct {
	id  FormID
	ctx *Ctx
}

type formKey struct {
	kind formKind
	lit  satpkg.Lit
	sig  string
}

// ID returns the formula's intern identifier. Hash-consing makes it a
// content address: within one Ctx, structurally identical formulas always
// share one ID, so it can key per-formula state (e.g. activation literals).
func (f Form) ID() FormID { return f.id }

// False returns the constant-false formula.
func (c *Ctx) False() Form { return Form{0, c} }

// True returns the constant-true formula.
func (c *Ctx) True() Form { return Form{1, c} }

// IsTrue reports whether f is the constant true.
func (f Form) IsTrue() bool { return f.id == 1 }

// IsFalse reports whether f is the constant false.
func (f Form) IsFalse() bool { return f.id == 0 }

func (c *Ctx) atomLit(l satpkg.Lit) Form {
	k := formKey{kind: formAtom, lit: l}
	if id, ok := c.formCache[k]; ok {
		return Form{id, c}
	}
	id := FormID(len(c.forms))
	c.forms = append(c.forms, formNode{kind: formAtom, lit: l})
	c.gateLits = append(c.gateLits, litNone)
	c.formCache[k] = id
	return Form{id, c}
}

// childSig builds the hash-consing key of an n-ary node. The signature is
// the varint encoding of the (sorted) child IDs into a reusable scratch
// buffer — formula construction is the encoder's hot path, so this must
// not go through fmt.
func (c *Ctx) childSig(kind formKind, ch []FormID) formKey {
	b := c.sigBuf[:0]
	for _, id := range ch {
		b = binary.AppendVarint(b, int64(id))
	}
	c.sigBuf = b
	return formKey{kind: kind, sig: string(b)}
}

func (c *Ctx) mkNary(kind formKind, fs []Form) Form {
	neutral, absorbing := c.True(), c.False()
	if kind == formOr {
		neutral, absorbing = c.False(), c.True()
	}
	// Flatten, drop neutral elements, detect absorbing elements and
	// complementary pairs. The child set is collected into a reusable
	// scratch buffer with linear dedup/complement scans — formula
	// construction is the encoder's hot path, and the per-call map plus
	// reflection-based sort this used to do dominated encoding builds.
	flat := c.naryBuf[:0]
	var add func(Form) bool // returns false if result collapses to absorbing
	add = func(f Form) bool {
		if f.ctx != nil && f.ctx != c {
			panic("smt: mixing formulas from different contexts")
		}
		n := &c.forms[f.id]
		switch {
		case f.id == absorbing.id:
			return false
		case f.id == neutral.id:
			return true
		case n.kind == kind:
			for _, ch := range n.children {
				if !add(Form{ch, c}) {
					return false
				}
			}
			return true
		}
		for _, id := range flat {
			if id == f.id {
				return true // duplicate
			}
			g := &c.forms[id]
			// Complements: ¬x with x present (either orientation), and
			// complementary raw atoms.
			if g.kind == formNot && g.children[0] == f.id {
				return false
			}
			if n.kind == formNot && n.children[0] == id {
				return false
			}
			if n.kind == formAtom && g.kind == formAtom && g.lit == n.lit.Neg() {
				return false
			}
		}
		flat = append(flat, f.id)
		return true
	}
	for _, f := range fs {
		if !add(f) {
			c.naryBuf = flat
			return absorbing
		}
	}
	c.naryBuf = flat
	switch len(flat) {
	case 0:
		return neutral
	case 1:
		return Form{flat[0], c}
	}
	slices.Sort(flat)
	k := c.childSig(kind, flat)
	if id, ok := c.formCache[k]; ok {
		return Form{id, c}
	}
	id := FormID(len(c.forms))
	c.forms = append(c.forms, formNode{kind: kind, children: append([]FormID(nil), flat...)})
	c.gateLits = append(c.gateLits, litNone)
	c.formCache[k] = id
	return Form{id, c}
}

// And returns the conjunction of fs (True when empty).
func (c *Ctx) And(fs ...Form) Form { return c.mkNary(formAnd, fs) }

// Or returns the disjunction of fs (False when empty).
func (c *Ctx) Or(fs ...Form) Form { return c.mkNary(formOr, fs) }

// Not returns the negation of f.
func (c *Ctx) Not(f Form) Form {
	switch f.id {
	case 0:
		return c.True()
	case 1:
		return c.False()
	}
	n := c.forms[f.id]
	if n.kind == formNot {
		return Form{n.children[0], c}
	}
	if n.kind == formAtom {
		return c.atomLit(n.lit.Neg())
	}
	k := c.childSig(formNot, []FormID{f.id})
	if id, ok := c.formCache[k]; ok {
		return Form{id, c}
	}
	id := FormID(len(c.forms))
	c.forms = append(c.forms, formNode{kind: formNot, children: []FormID{f.id}})
	c.gateLits = append(c.gateLits, litNone)
	c.formCache[k] = id
	return Form{id, c}
}

// Implies returns (a → b).
func (c *Ctx) Implies(a, b Form) Form { return c.Or(c.Not(a), b) }

// Iff returns (a ↔ b).
func (c *Ctx) Iff(a, b Form) Form {
	return c.And(c.Implies(a, b), c.Implies(b, a))
}

// Ite returns (cond ∧ then) ∨ (¬cond ∧ els).
func (c *Ctx) Ite(cond, then, els Form) Form {
	return c.Or(c.And(cond, then), c.And(c.Not(cond), els))
}

// Eq returns the atom (a == b) for two terms of the same sort.
func (c *Ctx) Eq(a, b Term) Form {
	l := c.eqLit(a.id, b.id)
	switch l {
	case c.trueLit():
		return c.True()
	case c.falseLit():
		return c.False()
	}
	return c.atomLit(l)
}

// Neq returns ¬(a == b).
func (c *Ctx) Neq(a, b Term) Form { return c.Not(c.Eq(a, b)) }

// Distinct asserts pairwise disequality of the given terms.
func (c *Ctx) Distinct(ts ...Term) Form {
	var fs []Form
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			fs = append(fs, c.Neq(ts[i], ts[j]))
		}
	}
	return c.And(fs...)
}

// constLit returns a literal fixed to the given truth value, allocating the
// backing variable on first use.
var constLitName = [2]string{"$false", "$true"}

func (c *Ctx) constSATLit(val bool) satpkg.Lit {
	name := constLitName[0]
	if val {
		name = constLitName[1]
	}
	v, ok := c.bools[name]
	if !ok {
		v = c.solver.NewVar()
		c.bools[name] = v
		if val {
			c.solver.AddClause(satpkg.PosLit(v))
		} else {
			c.solver.AddClause(satpkg.NegLit(v))
		}
	}
	if val {
		return satpkg.PosLit(v)
	}
	return satpkg.PosLit(v)
}

// lit encodes f as a SAT literal via hash-consed Tseitin transformation.
func (c *Ctx) lit(f Form) satpkg.Lit {
	if f.id == 0 {
		return c.constSATLit(false)
	}
	if f.id == 1 {
		return c.constSATLit(true)
	}
	if l := c.gateLits[f.id]; l != litNone {
		return l
	}
	n := c.forms[f.id]
	var l satpkg.Lit
	switch n.kind {
	case formAtom:
		l = n.lit
	case formNot:
		l = c.lit(Form{n.children[0], c}).Neg()
	case formAnd, formOr:
		g := c.solver.NewVar()
		l = satpkg.PosLit(g)
		kids := make([]satpkg.Lit, len(n.children))
		for i, ch := range n.children {
			kids[i] = c.lit(Form{ch, c})
		}
		if n.kind == formAnd {
			long := make([]satpkg.Lit, 0, len(kids)+1)
			long = append(long, satpkg.PosLit(g))
			for _, k := range kids {
				c.solver.AddClause(satpkg.NegLit(g), k) // g → k
				long = append(long, k.Neg())
			}
			c.solver.AddClause(long...) // ∧k → g
		} else {
			long := make([]satpkg.Lit, 0, len(kids)+1)
			long = append(long, satpkg.NegLit(g))
			for _, k := range kids {
				c.solver.AddClause(satpkg.PosLit(g), k.Neg()) // k → g
				long = append(long, k)
			}
			c.solver.AddClause(long...) // g → ∨k
		}
	default:
		panic("smt: unknown formula kind")
	}
	c.gateLits[f.id] = l
	return l
}

// Assert adds f as a hard constraint. Top-level conjunctions are split and
// top-level disjunctions of literals become plain clauses, avoiding
// unnecessary Tseitin variables.
func (c *Ctx) Assert(f Form) {
	switch f.id {
	case 1:
		return
	case 0:
		// Assert false: make the instance unsatisfiable.
		c.solver.AddClause()
		return
	}
	n := c.forms[f.id]
	switch n.kind {
	case formAnd:
		for _, ch := range n.children {
			c.Assert(Form{ch, c})
		}
	case formOr:
		clause := make([]satpkg.Lit, len(n.children))
		for i, ch := range n.children {
			clause[i] = c.lit(Form{ch, c})
		}
		c.solver.AddClause(clause...)
	default:
		c.solver.AddClause(c.lit(f))
	}
}

// AssertGuarded adds f as a constraint active only while guard holds:
// every emitted clause carries ¬guard, so solving with guard assumed
// enforces f and solving without leaves f unconstrained. Combined with
// ReleaseGuard this is the activation-literal discipline that lets one
// context serve many retireable queries: top-level conjunctions are split
// and disjunctions become plain guarded clauses (no Tseitin gate for the
// outermost connective), exactly mirroring Assert.
func (c *Ctx) AssertGuarded(guard, f Form) {
	c.assertGuarded(c.lit(guard).Neg(), f)
}

func (c *Ctx) assertGuarded(notGuard satpkg.Lit, f Form) {
	switch f.id {
	case 1:
		return
	case 0:
		// guard → false: the guard can simply never hold.
		c.solver.AddClause(notGuard)
		return
	}
	n := c.forms[f.id]
	switch n.kind {
	case formAnd:
		for _, ch := range n.children {
			c.assertGuarded(notGuard, Form{ch, c})
		}
	case formOr:
		clause := make([]satpkg.Lit, 0, len(n.children)+1)
		clause = append(clause, notGuard)
		for _, ch := range n.children {
			clause = append(clause, c.lit(Form{ch, c}))
		}
		c.solver.AddClause(clause...)
	default:
		c.solver.AddClause(notGuard, c.lit(f))
	}
}

// ReleaseGuard permanently retires a guard used with AssertGuarded: ¬guard
// becomes a level-0 fact and the underlying solver garbage-collects every
// clause the guard carried (including learnt clauses conditioned on it).
// The guard must never be assumed again.
func (c *Ctx) ReleaseGuard(guards ...Form) {
	lits := make([]satpkg.Lit, len(guards))
	for i, g := range guards {
		lits[i] = c.lit(g).Neg()
	}
	c.solver.Release(lits...)
}

// AssertAtMostK constrains at most k of the formulas to hold, using a
// sequential-counter encoding (linear in len(fs)*k).
func (c *Ctx) AssertAtMostK(fs []Form, k int) {
	if k < 0 {
		panic("smt: negative cardinality bound")
	}
	if len(fs) <= k {
		return
	}
	lits := make([]satpkg.Lit, len(fs))
	for i, f := range fs {
		lits[i] = c.lit(f)
	}
	if k == 0 {
		for _, l := range lits {
			c.solver.AddClause(l.Neg())
		}
		return
	}
	n := len(lits)
	// reg[i][j]: among lits[0..i], at least j+1 are true.
	reg := make([][]satpkg.Var, n)
	for i := range reg {
		reg[i] = make([]satpkg.Var, k)
		for j := range reg[i] {
			reg[i][j] = c.solver.NewVar()
		}
	}
	c.solver.AddClause(lits[0].Neg(), satpkg.PosLit(reg[0][0]))
	for j := 1; j < k; j++ {
		c.solver.AddClause(satpkg.NegLit(reg[0][j]))
	}
	for i := 1; i < n; i++ {
		c.solver.AddClause(lits[i].Neg(), satpkg.PosLit(reg[i][0]))
		c.solver.AddClause(satpkg.NegLit(reg[i-1][0]), satpkg.PosLit(reg[i][0]))
		for j := 1; j < k; j++ {
			c.solver.AddClause(lits[i].Neg(), satpkg.NegLit(reg[i-1][j-1]), satpkg.PosLit(reg[i][j]))
			c.solver.AddClause(satpkg.NegLit(reg[i-1][j]), satpkg.PosLit(reg[i][j]))
		}
		c.solver.AddClause(lits[i].Neg(), satpkg.NegLit(reg[i-1][k-1]))
	}
}

// AssertExactlyOne constrains exactly one of fs to hold. Small sets use
// the pairwise encoding; larger ones the linear sequential counter.
func (c *Ctx) AssertExactlyOne(fs []Form) {
	lits := make([]satpkg.Lit, len(fs))
	for i, f := range fs {
		lits[i] = c.lit(f)
	}
	c.solver.AddClause(lits...)
	if len(lits) <= 8 {
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				c.solver.AddClause(lits[i].Neg(), lits[j].Neg())
			}
		}
		return
	}
	c.AssertAtMostK(fs, 1)
}

// Solve decides the asserted constraints.
func (c *Ctx) Solve() satpkg.Status { return c.solver.Solve() }

// SolveAssuming decides the asserted constraints under temporary
// assumptions.
func (c *Ctx) SolveAssuming(assumps ...Form) satpkg.Status {
	lits := make([]satpkg.Lit, len(assumps))
	for i, f := range assumps {
		lits[i] = c.lit(f)
	}
	return c.solver.SolveAssuming(lits)
}

// EvalTerm returns the element index assigned to t in the last model.
func (c *Ctx) EvalTerm(t Term) int {
	n := c.terms[t.id]
	if n.kind == termConst {
		return n.constIdx
	}
	for i, b := range n.bits {
		if c.solver.Value(b) == satpkg.True {
			return i
		}
	}
	return -1
}

// EvalForm structurally evaluates f against the last model. Atoms not
// constrained by the asserted formula may evaluate to Undef.
func (c *Ctx) EvalForm(f Form) satpkg.Tribool {
	n := c.forms[f.id]
	switch n.kind {
	case formFalse:
		return satpkg.False
	case formTrue:
		return satpkg.True
	case formAtom:
		v := c.solver.Value(n.lit.Var())
		if v == satpkg.Undef {
			return satpkg.Undef
		}
		if n.lit.Sign() {
			return v.Not()
		}
		return v
	case formNot:
		return c.EvalForm(Form{n.children[0], c}).Not()
	case formAnd:
		res := satpkg.True
		for _, ch := range n.children {
			switch c.EvalForm(Form{ch, c}) {
			case satpkg.False:
				return satpkg.False
			case satpkg.Undef:
				res = satpkg.Undef
			}
		}
		return res
	case formOr:
		res := satpkg.False
		for _, ch := range n.children {
			switch c.EvalForm(Form{ch, c}) {
			case satpkg.True:
				return satpkg.True
			case satpkg.Undef:
				res = satpkg.Undef
			}
		}
		return res
	}
	return satpkg.Undef
}

// NumForms returns the number of distinct formula nodes built (a proxy for
// encoding size in benchmarks).
func (c *Ctx) NumForms() int { return len(c.forms) }
