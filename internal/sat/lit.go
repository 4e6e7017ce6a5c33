// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver. It is the bottom layer of VMN's verification stack, standing in
// for Z3's propositional core: internal/smt converts the encoder's
// hash-consed boolean formulas into CNF, which this package decides.
//
// The solver implements the standard modern architecture: two-literal
// watching for unit propagation, VSIDS variable activity with phase saving,
// first-UIP conflict analysis with clause minimization, Luby-sequence
// restarts, and activity-driven deletion of learnt clauses. Solving under
// assumptions is supported so callers can reuse one solver instance across
// related queries.
//
// A clause costs its literals. A binary problem clause is only its two
// watchers, and the reason it gives is the other literal. Longer problem
// clauses' literals are carved out of slabs, and watch lists grow into
// segments of a shared slab, which start small and double up to a bound;
// a slab is freed with the last thing carved from it. Watchers name their
// clause by index, so the GC does not scan them. reduceDB and Release
// compact the clause index and drop the watchers of what they delete.
// Learnt clauses' literals are allocated one by one.
package sat

import "fmt"

// Var identifies a propositional variable. Variables are dense small
// integers handed out by Solver.NewVar starting from 0.
type Var int32

// Lit is a literal: a variable together with a sign. The encoding is the
// usual one (2*v for the positive literal, 2*v+1 for the negation) so that
// a literal indexes watch lists directly.
type Lit int32

// LitUndef is a sentinel literal distinct from every real literal.
const LitUndef Lit = -1

// MkLit constructs a literal for v, negated if neg is true.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1) | 1 }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg returns the complement of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether l is a negated literal.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal in DIMACS style (e.g. "3", "-7"), 1-based.
func (l Lit) String() string {
	if l == LitUndef {
		return "undef"
	}
	if l.Sign() {
		return fmt.Sprintf("-%d", int(l.Var())+1)
	}
	return fmt.Sprintf("%d", int(l.Var())+1)
}

// Tribool is a three-valued boolean used for assignments and model queries.
type Tribool int8

// Tribool values.
const (
	False Tribool = iota
	True
	Undef
)

// String returns "false", "true" or "undef".
func (t Tribool) String() string { return [...]string{"false", "true", "undef"}[t] }

// Not negates a tribool; Undef stays Undef.
func (t Tribool) Not() Tribool { return t.xorSign(true) }

// xorSign flips t when sign is true, used to evaluate a literal from its
// variable's assignment.
func (t Tribool) xorSign(sign bool) Tribool {
	if t == Undef || !sign {
		return t
	}
	return t ^ 1
}
