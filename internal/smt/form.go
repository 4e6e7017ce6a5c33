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

// formNode is one interned formula: an atom's literal, or the position of
// an And/Or/Not node's children in Ctx.kids.
type formNode struct {
	kind   formKind
	lit    satpkg.Lit // for formAtom
	off, n int32      // children: kids[off : off+n]
}

// children returns the child IDs of node n.
func (c *Ctx) children(n *formNode) []FormID { return c.kids[n.off : n.off+n.n] }

// FormID identifies an interned formula node within a Ctx.
type FormID int32

// Form is a handle to a boolean formula over the context's atoms.
type Form struct {
	id  FormID
	ctx *Ctx
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

// atomLit returns the atom node of SAT literal l, creating it on first use.
func (c *Ctx) atomLit(l satpkg.Lit) Form {
	if n := int(l) + 1; n > len(c.atoms) {
		c.atoms = append(c.atoms, make([]FormID, n-len(c.atoms))...)
	}
	if id := c.atoms[l]; id != 0 {
		return Form{id, c}
	}
	id := FormID(len(c.forms))
	c.forms = append(c.forms, formNode{kind: formAtom, lit: l})
	c.gateLits = append(c.gateLits, litNone)
	c.atoms[l] = id
	return Form{id, c}
}

// intern returns the node of the given kind over the children ch (sorted
// for And/Or), creating it on first use. The hash-consing key is the kind
// byte and the varint encoding of the child IDs in a reusable scratch
// buffer, so a lookup that hits allocates nothing — formula construction
// is the encoder's hot path. A new node's children go to the end of c.kids.
func (c *Ctx) intern(kind formKind, ch []FormID) Form {
	b := append(c.sigBuf[:0], byte(kind))
	for _, id := range ch {
		b = binary.AppendVarint(b, int64(id))
	}
	c.sigBuf = b
	if id, ok := c.formCache[string(b)]; ok {
		return Form{id, c}
	}
	id := FormID(len(c.forms))
	c.forms = append(c.forms, formNode{kind: kind, off: int32(len(c.kids)), n: int32(len(ch))})
	c.kids = append(c.kids, ch...)
	c.gateLits = append(c.gateLits, litNone)
	c.formCache[string(b)] = id
	return Form{id, c}
}

// naryAdd adds f to the child set of a kind node under construction in
// c.naryBuf: it flattens nested nodes of the same kind, drops neutral
// elements and duplicates, and reports false when the node collapses to
// its absorbing element (an absorbing child or a complementary pair). The
// linear dedup/complement scans beat a per-call map and a reflection-based
// sort on the encoder's small child sets.
func (c *Ctx) naryAdd(kind formKind, neutral, absorbing FormID, f Form) bool {
	if f.ctx != nil && f.ctx != c {
		panic("smt: mixing formulas from different contexts")
	}
	n := &c.forms[f.id]
	switch {
	case f.id == absorbing:
		return false
	case f.id == neutral:
		return true
	case n.kind == kind:
		for _, ch := range c.children(n) {
			if !c.naryAdd(kind, neutral, absorbing, Form{ch, c}) {
				return false
			}
		}
		return true
	}
	for _, id := range c.naryBuf {
		if id == f.id {
			return true // duplicate
		}
		g := &c.forms[id]
		// Complements: ¬x with x present (either orientation), and
		// complementary raw atoms.
		if g.kind == formNot && c.kids[g.off] == f.id {
			return false
		}
		if n.kind == formNot && c.kids[n.off] == id {
			return false
		}
		if n.kind == formAtom && g.kind == formAtom && g.lit == n.lit.Neg() {
			return false
		}
	}
	c.naryBuf = append(c.naryBuf, f.id)
	return true
}

func (c *Ctx) mkNary(kind formKind, fs []Form) Form {
	neutral, absorbing := c.True(), c.False()
	if kind == formOr {
		neutral, absorbing = c.False(), c.True()
	}
	c.naryBuf = c.naryBuf[:0]
	for _, f := range fs {
		if !c.naryAdd(kind, neutral.id, absorbing.id, f) {
			return absorbing
		}
	}
	flat := c.naryBuf
	switch len(flat) {
	case 0:
		return neutral
	case 1:
		return Form{flat[0], c}
	}
	slices.Sort(flat)
	return c.intern(kind, flat)
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
		return Form{c.kids[n.off], c}
	}
	if n.kind == formAtom {
		return c.atomLit(n.lit.Neg())
	}
	return c.intern(formNot, []FormID{f.id})
}

// constSATLit returns a literal fixed to constant form id's value (0
// false, 1 true), allocating the backing variable (and its unit clause)
// on first use.
func (c *Ctx) constSATLit(id FormID) satpkg.Lit {
	if c.constLits[id] == litNone {
		v := c.solver.NewVar()
		c.solver.AddClause(satpkg.MkLit(v, id == 0))
		c.constLits[id] = satpkg.PosLit(v)
	}
	return c.constLits[id]
}

// pushLits pushes the literals of fs onto c.litStk and returns the stack
// height before them. Encoding a child may recurse into pushLits; every
// caller pops back to the returned height once its clause is added, so
// the literals of one clause sit contiguously at c.litStk[base:].
func (c *Ctx) pushLits(fs []FormID) (base int) {
	base = len(c.litStk)
	for _, f := range fs {
		l := c.lit(Form{f, c})
		c.litStk = append(c.litStk, l)
	}
	return base
}

// lit encodes f as a SAT literal via hash-consed Tseitin transformation.
func (c *Ctx) lit(f Form) satpkg.Lit {
	if f.id <= 1 {
		return c.constSATLit(f.id)
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
		l = c.lit(Form{c.kids[n.off], c}).Neg()
	case formAnd, formOr:
		g := c.solver.NewVar()
		l = satpkg.PosLit(g)
		base := c.pushLits(c.children(&n))
		kids := c.litStk[base:]
		if n.kind == formAnd {
			c.litStk = append(c.litStk, satpkg.PosLit(g))
			for _, k := range kids {
				c.solver.AddClause(satpkg.NegLit(g), k) // g → k
				c.litStk = append(c.litStk, k.Neg())
			}
		} else {
			c.litStk = append(c.litStk, satpkg.NegLit(g))
			for _, k := range kids {
				c.solver.AddClause(satpkg.PosLit(g), k.Neg()) // k → g
				c.litStk = append(c.litStk, k)
			}
		}
		c.solver.AddClause(c.litStk[base+len(kids):]...) // ∧k → g, g → ∨k
		c.litStk = c.litStk[:base]
	default:
		panic("smt: unknown formula kind")
	}
	c.gateLits[f.id] = l
	return l
}

// Assert adds f as a hard constraint. Top-level conjunctions are split and
// top-level disjunctions of literals become plain clauses, avoiding
// unnecessary Tseitin variables.
func (c *Ctx) Assert(f Form) { c.assert(litNone, f) }

// AssertGuarded adds f as a constraint active only while guard holds:
// every emitted clause carries ¬guard, so solving with guard assumed
// enforces f and solving without leaves f unconstrained. Combined with
// ReleaseGuard this is the activation-literal discipline that lets one
// context serve many retireable queries: top-level conjunctions are split
// and disjunctions become plain guarded clauses (no Tseitin gate for the
// outermost connective), exactly mirroring Assert.
func (c *Ctx) AssertGuarded(guard, f Form) {
	c.assert(c.lit(guard).Neg(), f)
}

// assert adds the clauses of f, each with notGuard unless it is litNone.
// Asserting false adds the clause of notGuard alone: the guard can never
// hold, or, unguarded, the instance is unsatisfiable.
func (c *Ctx) assert(notGuard satpkg.Lit, f Form) {
	if f.id == 1 {
		return
	}
	base := len(c.litStk)
	if notGuard != litNone {
		c.litStk = append(c.litStk, notGuard)
	}
	switch n := c.forms[f.id]; {
	case f.id == 0:
	case n.kind == formAnd:
		for _, ch := range c.children(&n) {
			c.assert(notGuard, Form{ch, c})
		}
		c.litStk = c.litStk[:base]
		return
	case n.kind == formOr:
		c.pushLits(c.children(&n))
	default:
		l := c.lit(f)
		c.litStk = append(c.litStk, l)
	}
	c.solver.AddClause(c.litStk[base:]...)
	c.litStk = c.litStk[:base]
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

// formIDs returns the IDs of fs in a scratch slice of c.naryBuf.
func (c *Ctx) formIDs(fs []Form) []FormID {
	ids := c.naryBuf[:0]
	for _, f := range fs {
		ids = append(ids, f.id)
	}
	c.naryBuf = ids
	return ids
}

// AssertClause asserts the disjunction of fs as one clause, without a
// gate or an interned node for it.
func (c *Ctx) AssertClause(fs ...Form) {
	base := c.pushLits(c.formIDs(fs))
	c.solver.AddClause(c.litStk[base:]...)
	c.litStk = c.litStk[:base]
}

// AssertIffOr asserts x ↔ ⋁ys as clauses, without a gate for the
// disjunction: ¬y ∨ x for each y, and ¬x ∨ ⋁ys.
func (c *Ctx) AssertIffOr(x Form, ys ...Form) {
	xl := c.lit(x)
	base := c.pushLits(c.formIDs(ys))
	for _, y := range c.litStk[base:] {
		c.solver.AddClause(y.Neg(), xl)
	}
	c.litStk = append(c.litStk, xl.Neg())
	c.solver.AddClause(c.litStk[base:]...)
	c.litStk = c.litStk[:base]
}

// Solve decides the asserted constraints.
func (c *Ctx) Solve() satpkg.Status { return c.solver.Solve() }

// SolveAssuming decides the asserted constraints under temporary
// assumptions.
func (c *Ctx) SolveAssuming(assumps ...Form) satpkg.Status {
	base := c.pushLits(c.formIDs(assumps))
	st := c.solver.SolveAssuming(c.litStk[base:])
	c.litStk = c.litStk[:base]
	return st
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
		if n.lit.Sign() {
			return v.Not()
		}
		return v
	case formNot:
		return c.EvalForm(Form{c.kids[n.off], c}).Not()
	}
	// An And is False if a child is, an Or True if a child is; else Undef
	// if a child is, else the other value.
	absorb := satpkg.False
	if n.kind == formOr {
		absorb = satpkg.True
	}
	res := absorb.Not()
	for _, ch := range c.children(&n) {
		switch c.EvalForm(Form{ch, c}) {
		case absorb:
			return absorb
		case satpkg.Undef:
			res = satpkg.Undef
		}
	}
	return res
}
