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
// Problem clauses are carved, struct and literals, out of slabs, and watch
// lists grow into segments of a shared slab: loading clauses allocates a
// few slabs rather than an object per clause and per watch-list growth.
// Slabs start small and double up to a bound, so a solver of a few clauses
// pays for a few. The price is retention: a slab is freed with the last clause
// or watch segment carved from it, so the space of a clause Release
// deletes (or of a segment a watch list outgrew) is reclaimed with the
// solver, not before. Learnt clauses are allocated individually, since
// reduceDB deletes them throughout a solver's life.
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

// VarUndef is a sentinel variable distinct from every real variable.
const VarUndef Var = -1

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
func (t Tribool) String() string {
	switch t {
	case False:
		return "false"
	case True:
		return "true"
	default:
		return "undef"
	}
}

// Not negates a tribool; Undef stays Undef.
func (t Tribool) Not() Tribool {
	switch t {
	case False:
		return True
	case True:
		return False
	default:
		return Undef
	}
}

// xorSign flips t when sign is true, used to evaluate a literal from its
// variable's assignment.
func (t Tribool) xorSign(sign bool) Tribool {
	if t == Undef || !sign {
		return t
	}
	return t.Not()
}
