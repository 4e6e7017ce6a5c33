package smt

import (
	"testing"

	"github.com/netverify/vmn/internal/sat"
)

func TestBoolConnectives(t *testing.T) {
	c := NewCtx()
	p, q := c.BoolVar("p"), c.BoolVar("q")
	c.Assert(c.Or(c.Not(p), q))
	c.Assert(p)
	c.Assert(c.Not(q))
	if c.Solve() != sat.Unsat {
		t.Fatal("modus ponens violation must be UNSAT")
	}
}

func TestAssertIffOr(t *testing.T) {
	c := NewCtx()
	p, q, r := c.BoolVar("p"), c.BoolVar("q"), c.BoolVar("r")
	before := c.Solver().NumClauses()
	c.AssertIffOr(p, q, r)
	// One binary clause per disjunct and one long clause, no gate.
	if got := c.Solver().NumClauses() - before; got != 3 {
		t.Fatalf("p ↔ q ∨ r emitted %d clauses, want 3", got)
	}
	if c.SolveAssuming(c.Not(q), c.Not(r), p) != sat.Unsat {
		t.Fatal("p must not hold without q or r")
	}
	if c.SolveAssuming(r) != sat.Sat || c.EvalForm(p) != sat.True {
		t.Fatal("r must force p")
	}
	if c.SolveAssuming(c.Not(p), q) != sat.Unsat {
		t.Fatal("q must force p")
	}
}

func TestSimplifications(t *testing.T) {
	c := NewCtx()
	p := c.BoolVar("p")
	if !c.And().IsTrue() {
		t.Fatal("empty And should be True")
	}
	if !c.Or().IsFalse() {
		t.Fatal("empty Or should be False")
	}
	if c.And(p, c.Not(p)) != c.False() {
		t.Fatal("p ∧ ¬p should simplify to False")
	}
	if c.Or(p, c.Not(p)) != c.True() {
		t.Fatal("p ∨ ¬p should simplify to True")
	}
	if c.Not(c.Not(p)) != p {
		t.Fatal("double negation should cancel")
	}
	if c.And(p, c.True()) != p {
		t.Fatal("And with True should drop")
	}
	if c.Or(p, p) != p {
		t.Fatal("duplicate children should merge")
	}
}

func TestHashConsing(t *testing.T) {
	c := NewCtx()
	p, q := c.BoolVar("p"), c.BoolVar("q")
	if c.And(p, q) != c.And(q, p) {
		t.Fatal("And should be order-insensitive via hash-consing")
	}
}

func TestAssertFalseUnsat(t *testing.T) {
	c := NewCtx()
	c.Assert(c.False())
	if c.Solve() != sat.Unsat {
		t.Fatal("asserting False must yield UNSAT")
	}
}

func TestSolveAssuming(t *testing.T) {
	c := NewCtx()
	p, q := c.BoolVar("p"), c.BoolVar("q")
	c.Assert(c.Or(c.Not(p), c.Not(q))) // not both
	if c.SolveAssuming(p) != sat.Sat {
		t.Fatal("p assumable")
	}
	if c.EvalForm(q) != sat.False {
		t.Fatal("p must force ¬q")
	}
	if c.SolveAssuming(q) != sat.Sat {
		t.Fatal("q assumable after p (assumptions must not stick)")
	}
	if c.SolveAssuming(p, q) != sat.Unsat {
		t.Fatal("p ∧ q must be UNSAT")
	}
	if c.SolveAssuming(c.And(p, q)) != sat.Unsat {
		t.Fatal("assuming the gate of p ∧ q must be UNSAT")
	}
}

func TestEvalFormOnComposite(t *testing.T) {
	c := NewCtx()
	p, q := c.BoolVar("p"), c.BoolVar("q")
	c.Assert(p)
	c.Assert(c.Not(q))
	if c.Solve() != sat.Sat {
		t.Fatal("SAT expected")
	}
	if c.EvalForm(c.And(p, c.Not(q))) != sat.True {
		t.Fatal("composite eval wrong")
	}
	if c.EvalForm(c.Or(q, c.And(q, p))) != sat.False {
		t.Fatal("composite eval wrong (false case)")
	}
}

// Property: for random small equality graphs, the SMT verdict matches a
// union-find reachability check.
func TestSolverAccessor(t *testing.T) {
	c := NewCtx()
	p, q := c.BoolVar("p"), c.BoolVar("q")
	c.Assert(p)
	c.Assert(c.Or(c.Not(p), q))
	if c.Solve() != sat.Sat {
		t.Fatal("SAT expected")
	}
	if c.Solver().Stats().Propagations == 0 {
		t.Fatal("expected some propagation work")
	}
}

func TestMixedContextPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when mixing contexts")
		}
	}()
	c1, c2 := NewCtx(), NewCtx()
	p := c1.BoolVar("p")
	q := c2.BoolVar("q")
	c1.And(p, q)
}

func TestAssertGuardedActiveOnlyUnderGuard(t *testing.T) {
	c := NewCtx()
	x, y, g := c.BoolVar("x"), c.BoolVar("y"), c.FreshBool()
	// g → (x ∧ (¬x ∨ y)): under g both x and y are forced.
	c.AssertGuarded(g, c.And(x, c.Or(c.Not(x), y)))
	if c.SolveAssuming(g) != sat.Sat {
		t.Fatal("guarded formula should be satisfiable")
	}
	if c.EvalForm(x) != sat.True || c.EvalForm(y) != sat.True {
		t.Fatalf("guard must activate the formula: x=%v y=%v", c.EvalForm(x), c.EvalForm(y))
	}
	// Without the guard assumed, x and y are unconstrained.
	if c.SolveAssuming(c.Not(x), c.Not(y)) != sat.Sat {
		t.Fatal("unguarded solve must leave the formula inactive")
	}
}

func TestAssertGuardedSplitsConjunctions(t *testing.T) {
	c := NewCtx()
	g := c.FreshBool()
	var atoms []Form
	for i := 0; i < 4; i++ {
		atoms = append(atoms, c.FreshBool())
	}
	before := c.Solver().NumClauses()
	c.AssertGuarded(g, c.And(atoms...))
	// One guarded clause per conjunct, no Tseitin gates for the top level.
	if got := c.Solver().NumClauses() - before; got != len(atoms) {
		t.Fatalf("guarded conjunction emitted %d clauses, want %d", got, len(atoms))
	}
	if c.SolveAssuming(g) != sat.Sat {
		t.Fatal("should be satisfiable")
	}
	for i, a := range atoms {
		if c.EvalForm(a) != sat.True {
			t.Fatalf("conjunct %d not forced under guard", i)
		}
	}
}

func TestReleaseGuardRetiresFormula(t *testing.T) {
	c := NewCtx()
	x, g := c.BoolVar("x"), c.FreshBool()
	c.AssertGuarded(g, x)
	c.Assert(c.Or(x, c.Not(x))) // keep the instance non-trivial
	if c.SolveAssuming(g) != sat.Sat || c.EvalForm(x) != sat.True {
		t.Fatal("guard must force x")
	}
	before := c.Solver().NumClauses()
	c.ReleaseGuard(g)
	if got := c.Solver().NumClauses(); got >= before {
		t.Fatalf("release must garbage-collect the guarded clause: %d -> %d", before, got)
	}
	// x free again, and the context remains usable.
	if c.SolveAssuming(c.Not(x)) != sat.Sat {
		t.Fatal("released guard must no longer constrain x")
	}
}

func TestAssertGuardedFalseKillsGuardOnly(t *testing.T) {
	c := NewCtx()
	g := c.FreshBool()
	c.AssertGuarded(g, c.False())
	if c.SolveAssuming(g) != sat.Unsat {
		t.Fatal("guard implying false must be unassumable")
	}
	if c.Solve() != sat.Sat {
		t.Fatal("instance without the guard must stay satisfiable")
	}
}
