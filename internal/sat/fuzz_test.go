package sat

import (
	"slices"
	"testing"
)

// FuzzSolver drives one solver from bytes over at most 12 variables and
// 48 ops: unit, binary and long clauses, assumption solves and Release
// calls, interleaved. It checks every answer against brute force over the
// clauses added so far and the released literals, which together are
// the solver's formula: a Sat model satisfies every one of them and the
// assumptions, every verdict matches enumeration under the assumptions,
// and an Unsat answer's ConflictLits are negated assumptions that clash
// with the formula by themselves. After every op the clause index holds
// exactly the live clauses and learnts, and the watch lists two watchers
// per clause.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{3, 1, 0, 3, 1, 2, 5, 0, 2, 4, 1, 6, 1, 2, 1, 3, 5, 5, 3, 6})
	f.Add([]byte{11, 2, 0, 2, 4, 6, 3, 1, 3, 5, 7, 9, 1, 8, 11, 4, 2, 0, 3, 6, 9, 4, 0, 6, 2, 5, 2, 2})
	f.Add([]byte{5, 0, 1, 0, 0, 1, 3, 1, 1, 3, 5, 2, 2, 3, 7, 4, 5, 0, 4, 1, 3, 6, 6, 5, 1, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		nv := 1 + int(in[0])%12
		s := newSolverWithVars(nv)
		var formula [][]Lit // every clause added and literal released
		pos := 1
		next := func() (byte, bool) {
			if pos >= len(in) {
				return 0, false
			}
			pos++
			return in[pos-1], true
		}
		lits := func(n int) []Lit {
			var out []Lit
			for range n {
				b, ok := next()
				if !ok {
					break
				}
				out = append(out, MkLit(Var(int(b>>1)%nv), b&1 == 1))
			}
			return out
		}
		for step := 0; step < 48; step++ { // brute force is exponential in nv, linear in the steps
			op, ok := next()
			if !ok {
				return
			}
			switch op % 6 {
			case 0, 1, 2: // a unit, binary or long clause
				cl := lits([]int{1, 2, 3 + int(op/6)%4}[op%6])
				if len(cl) == 0 {
					return
				}
				s.AddClause(cl...)
				formula = append(formula, cl)
			case 3, 4: // a solve under up to 3 assumptions
				assumps := lits(int(op/6) % 4)
				checkSolve(t, step, s, nv, formula, assumps)
			case 5: // a release
				rel := lits(1)
				if len(rel) == 0 {
					return
				}
				s.Release(rel...)
				formula = append(formula, rel)
			}
			if long := s.NumClauses() - s.nBin + len(s.learnts); len(s.cls) != long {
				t.Fatalf("step %d: clause index holds %d slots for %d live clauses", step, len(s.cls), long)
			}
			if got, want := s.watchers(), 2*(len(s.cls)+s.nBin); got != want {
				t.Fatalf("step %d: %d watchers for %d clauses and %d binaries", step, got, len(s.cls), s.nBin)
			}
		}
	})
}

// checkSolve solves under assumps and checks the answer against brute
// force over formula.
func checkSolve(t *testing.T, step int, s *Solver, nv int, formula [][]Lit, assumps []Lit) {
	t.Helper()
	with := func(units []Lit) [][]Lit {
		f := slices.Clone(formula)
		for _, l := range units {
			f = append(f, []Lit{l})
		}
		return f
	}
	got := s.SolveAssuming(assumps)
	if want := bruteForceSat(nv, with(assumps)); (got == Sat) != want {
		t.Fatalf("step %d: %v under %v, brute force says sat=%v over %v", step, got, assumps, want, formula)
	}
	switch got {
	case Sat:
		for _, cl := range with(assumps) {
			if !slices.ContainsFunc(cl, func(l Lit) bool { return s.Value(l.Var()).xorSign(l.Sign()) == True }) {
				t.Fatalf("step %d: model falsifies %v", step, cl)
			}
		}
	case Unsat:
		var core []Lit
		for _, c := range s.ConflictLits() {
			if !slices.Contains(assumps, c.Neg()) {
				t.Fatalf("step %d: conflict literal %v negates no assumption of %v", step, c, assumps)
			}
			core = append(core, c.Neg())
		}
		if bruteForceSat(nv, with(core)) {
			t.Fatalf("step %d: conflict %v is satisfiable with the formula %v", step, s.ConflictLits(), formula)
		}
	default:
		t.Fatalf("step %d: %v without a conflict budget", step, got)
	}
}
