package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func lit(n int) Lit { // DIMACS-style helper: 1 => x0, -1 => ¬x0
	if n > 0 {
		return MkLit(Var(n-1), false)
	}
	return MkLit(Var(-n-1), true)
}

func newSolverWithVars(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func TestLitBasics(t *testing.T) {
	v := Var(5)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatalf("Var round-trip failed: %v %v", p.Var(), n.Var())
	}
	if p.Sign() || !n.Sign() {
		t.Fatalf("sign wrong: p=%v n=%v", p.Sign(), n.Sign())
	}
	if p.Neg() != n || n.Neg() != p {
		t.Fatalf("negation not involutive")
	}
	if p.String() != "6" || n.String() != "-6" {
		t.Fatalf("string: %s %s", p, n)
	}
}

func TestTribool(t *testing.T) {
	if True.Not() != False || False.Not() != True || Undef.Not() != Undef {
		t.Fatal("Not broken")
	}
	if True.xorSign(true) != False || True.xorSign(false) != True {
		t.Fatal("xorSign broken")
	}
	if Undef.xorSign(true) != Undef {
		t.Fatal("xorSign must preserve Undef")
	}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty formula: got %v, want Sat", got)
	}
}

func TestSingleUnit(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(lit(1))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	if s.Value(0) != True {
		t.Fatalf("x0 should be true, got %v", s.Value(0))
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := newSolverWithVars(1)
	s.AddClause(lit(1))
	ok := s.AddClause(lit(-1))
	if ok {
		t.Fatal("adding contradictory unit should report inconsistency")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v", got)
	}
}

func TestTautologyAccepted(t *testing.T) {
	s := newSolverWithVars(2)
	if !s.AddClause(lit(1), lit(-1)) {
		t.Fatal("tautology should be accepted")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x1 ∧ (x1→x2) ∧ (x2→x3) ∧ ... forces all true.
	const n = 50
	s := newSolverWithVars(n)
	s.AddClause(lit(1))
	for i := 1; i < n; i++ {
		s.AddClause(lit(-i), lit(i+1))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	for i := 0; i < n; i++ {
		if s.Value(Var(i)) != True {
			t.Fatalf("x%d should be true", i)
		}
	}
}

func TestUnsatTriangle(t *testing.T) {
	// (a∨b) (¬a∨b) (a∨¬b) (¬a∨¬b) is unsatisfiable.
	s := newSolverWithVars(2)
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(2))
	s.AddClause(lit(1), lit(-2))
	s.AddClause(lit(-1), lit(-2))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v", got)
	}
}

// pigeonhole adds clauses asserting n+1 pigeons fit into n holes (UNSAT).
func pigeonhole(s *Solver, n int) {
	vars := make([][]Var, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]Var, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ { // every pigeon in some hole
		cl := make([]Lit, n)
		for h := 0; h < n; h++ {
			cl[h] = PosLit(vars[p][h])
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ { // no two pigeons share a hole
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d): got %v, want Unsat", n, got)
		}
	}
}

func TestPigeonholeSatVariant(t *testing.T) {
	// n pigeons into n holes is satisfiable.
	const n = 5
	s := New()
	vars := make([][]Var, n)
	for p := 0; p < n; p++ {
		vars[p] = make([]Var, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < n; p++ {
		cl := make([]Lit, n)
		for h := 0; h < n; h++ {
			cl[h] = PosLit(vars[p][h])
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
}

func TestModelSatisfiesAllClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		nv := 10 + rng.Intn(20)
		nc := 2 * nv
		s := newSolverWithVars(nv)
		clauses := make([][]Lit, 0, nc)
		for i := 0; i < nc; i++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 0)
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
		}
		if s.Solve() != Sat {
			continue
		}
		for _, cl := range clauses {
			sat := false
			for _, l := range cl {
				if s.Value(l.Var()).xorSign(l.Sign()) == True {
					sat = true
					break
				}
			}
			if !sat {
				t.Fatalf("model does not satisfy clause %v", cl)
			}
		}
	}
}

// bruteForceSat decides satisfiability of a CNF by enumeration (≤20 vars).
func bruteForceSat(nv int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(nv); m++ {
		ok := true
		for _, cl := range clauses {
			cs := false
			for _, l := range cl {
				bit := m>>uint(l.Var())&1 == 1
				if bit != l.Sign() {
					cs = true
					break
				}
			}
			if !cs {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		nv := 3 + rng.Intn(8)
		nc := 1 + rng.Intn(4*nv)
		clauses := make([][]Lit, 0, nc)
		s := newSolverWithVars(nv)
		for i := 0; i < nc; i++ {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 0)
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
		}
		want := bruteForceSat(nv, clauses)
		got := s.Solve() == Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v clauses=%v", iter, got, want, clauses)
		}
	}
}

func TestQuickRandom3SATAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + int(seed%5+5)%5 // 4..8 vars
		nc := 3 * nv
		clauses := make([][]Lit, 0, nc)
		s := newSolverWithVars(nv)
		for i := 0; i < nc; i++ {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 0)
			}
			clauses = append(clauses, cl)
			s.AddClause(cl...)
		}
		return (s.Solve() == Sat) == bruteForceSat(nv, clauses)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveAssuming(t *testing.T) {
	// (a ∨ b) with assumption ¬a forces b.
	s := newSolverWithVars(2)
	s.AddClause(lit(1), lit(2))
	if got := s.SolveAssuming([]Lit{lit(-1)}); got != Sat {
		t.Fatalf("got %v", got)
	}
	if s.Value(1) != True {
		t.Fatalf("b should be true under ¬a")
	}
	// Assuming both ¬a and ¬b must be Unsat, and the solver stays reusable.
	if got := s.SolveAssuming([]Lit{lit(-1), lit(-2)}); got != Unsat {
		t.Fatalf("got %v", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("solver must remain usable after assumption conflict, got %v", got)
	}
}

func TestAssumptionConflictLits(t *testing.T) {
	s := newSolverWithVars(3)
	s.AddClause(lit(-1), lit(2)) // a→b
	s.AddClause(lit(-2), lit(3)) // b→c
	if got := s.SolveAssuming([]Lit{lit(1), lit(-3)}); got != Unsat {
		t.Fatalf("got %v", got)
	}
	if len(s.ConflictLits()) == 0 {
		t.Fatal("expected a non-empty final conflict over assumptions")
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) {
	s := newSolverWithVars(2)
	s.AddClause(lit(1), lit(2))
	if s.Solve() != Sat {
		t.Fatal("phase 1 should be SAT")
	}
	s.AddClause(lit(-1))
	s.AddClause(lit(-2))
	if s.Solve() != Unsat {
		t.Fatal("phase 2 should be UNSAT")
	}
}

func TestMaxConflictsGivesUnknown(t *testing.T) {
	s := New()
	pigeonhole(s, 8) // hard enough to exceed a tiny conflict budget
	s.SetMaxConflicts(5)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("got %v, want Unknown under conflict budget", got)
	}
}

// guardedPigeonhole adds pigeonhole clauses for n+1 pigeons in n holes that
// only bite under assumption `guard` (every pigeon-placement clause carries
// ¬guard).
func guardedPigeonhole(s *Solver, guard Var, n int) {
	vars := make([][]Var, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]Var, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		cl := []Lit{NegLit(guard)}
		for h := 0; h < n; h++ {
			cl = append(cl, PosLit(vars[p][h]))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
			}
		}
	}
}

func TestMaxConflictsIsPerSolveCall(t *testing.T) {
	// A reused instance must give every Solve call a fresh budget: after a
	// budget-exhausted hard query, an easy query on the same instance must
	// still be decided rather than starved by the accumulated conflicts.
	s := New()
	guard := s.NewVar()
	guardedPigeonhole(s, guard, 8)
	s.SetMaxConflicts(20)
	if got := s.SolveAssuming([]Lit{PosLit(guard)}); got != Unknown {
		t.Fatalf("hard query: got %v, want Unknown", got)
	}
	if s.Stats().Conflicts < 20 {
		t.Fatalf("hard query should have burned its budget, conflicts=%d", s.Stats().Conflicts)
	}
	// Deactivated, the formula is easy — with a cumulative budget this call
	// would be starved and report Unknown.
	if got := s.SolveAssuming([]Lit{NegLit(guard)}); got != Sat {
		t.Fatalf("easy query after an exhausted one must get its own budget, got %v", got)
	}
}

func TestReleaseRetiresActivationClauses(t *testing.T) {
	// Activation-literal lifecycle: clauses (¬a ∨ x) and (¬a ∨ ¬y) are
	// active only under assumption a; releasing ¬a permanently satisfies
	// and garbage-collects them.
	s := newSolverWithVars(3) // a=1, x=2, y=3
	s.AddClause(lit(-1), lit(2))
	s.AddClause(lit(-1), lit(-3))
	if got := s.SolveAssuming([]Lit{lit(1)}); got != Sat {
		t.Fatalf("got %v", got)
	}
	if s.Value(1) != True || s.Value(2) != False {
		t.Fatalf("assumption a must force x and ¬y: x=%v y=%v", s.Value(1), s.Value(2))
	}
	before := s.NumClauses()
	if !s.Release(lit(-1)) {
		t.Fatal("release must keep the solver consistent")
	}
	if got := s.NumClauses(); got >= before {
		t.Fatalf("release must garbage-collect satisfied clauses: %d -> %d", before, got)
	}
	// With a retired, x and y are unconstrained again.
	if got := s.SolveAssuming([]Lit{lit(-2), lit(3)}); got != Sat {
		t.Fatalf("retired query must no longer constrain x/y, got %v", got)
	}
}

func TestReleaseDropsConditionedLearnts(t *testing.T) {
	// Learnt clauses derived under an activation assumption contain its
	// negation and must be collected when the activation is released.
	s := New()
	a := s.NewVar()
	guardedPigeonhole(s, a, 6)
	if got := s.SolveAssuming([]Lit{PosLit(a)}); got != Unsat {
		t.Fatalf("guarded pigeonhole under a: got %v, want Unsat", got)
	}
	if !s.Release(NegLit(a)) {
		t.Fatal("release must keep the solver consistent")
	}
	for _, c := range s.learnts {
		for _, l := range s.cls[c].lits {
			if l.Var() == a {
				t.Fatal("learnt clause conditioned on released activation survived GC")
			}
		}
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("formula without activation must be Sat, got %v", got)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestVarOrderHeap(t *testing.T) {
	act := []float64{1, 5, 3, 4, 2}
	o := newVarOrder(&act)
	o.indices = []int32{-1, -1, -1, -1, -1}
	for v := 0; v < 5; v++ {
		o.push(Var(v))
	}
	got := []Var{}
	for !o.empty() {
		got = append(got, o.pop())
	}
	want := []Var{1, 3, 2, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap order = %v, want %v", got, want)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	s := New()
	pigeonhole(s, 5)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 || st.Propagations == 0 {
		t.Fatalf("expected non-trivial work, got %+v", st)
	}
}

func BenchmarkSolverPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 7)
		if s.Solve() != Unsat {
			b.Fatal("wrong verdict")
		}
	}
}

func BenchmarkSolverRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		nv := 60
		s := newSolverWithVars(nv)
		for c := 0; c < int(4.0*float64(nv)); c++ {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(nv)), rng.Intn(2) == 0)
			}
			s.AddClause(cl...)
		}
		s.Solve()
	}
}

// TestAddClauseAllocatesSlabs: loading problem clauses allocates slabs —
// for literals and watch segments — and grows the clause index, not
// objects per clause and per watch-list growth. These 1 996 clauses cost
// 28 allocations on linux/amd64, the binary half of them none of their
// own; with a clause struct for every clause they cost 38, and with a
// clause struct, a literal array, a sort copy and watch-list growths of
// their own 7 996.
func TestAddClauseAllocatesSlabs(t *testing.T) {
	const n = 1000
	load := func(clauses bool) float64 {
		return testing.AllocsPerRun(5, func() {
			s := New()
			for i := 0; i < n; i++ {
				s.NewVar()
			}
			for i := 0; clauses && i+2 < n; i++ {
				s.AddClause(PosLit(Var(i)), NegLit(Var(i+1)), PosLit(Var(i+2)))
				s.AddClause(NegLit(Var(i)), PosLit(Var(i+2)))
			}
		})
	}
	if extra := load(true) - load(false); extra > 100 {
		t.Fatalf("%d clauses made %.0f allocations beyond their variables'", 2*(n-2), extra)
	}
}

// TestSearchPinned pins the full work counters of searches that restart,
// delete learnt clauses in reduceDB, minimize and release guarded queries.
// The solver has no randomness, so they are a function of the clauses and
// the order they were added in; a change to how clauses are stored leaves
// them alone.
func TestSearchPinned(t *testing.T) {
	php := New()
	pigeonhole(php, 7)
	php.Solve()

	rng := rand.New(rand.NewSource(11))
	r3 := newSolverWithVars(150)
	for c := 0; c < 639; c++ {
		r3.AddClause(MkLit(Var(rng.Intn(150)), rng.Intn(2) == 0),
			MkLit(Var(rng.Intn(150)), rng.Intn(2) == 0), MkLit(Var(rng.Intn(150)), rng.Intn(2) == 0))
	}
	r3.Solve()

	rel := New()
	for round := 0; round < 40; round++ {
		g := rel.NewVar()
		guardedPigeonhole(rel, g, 3+round%4)
		rel.SolveAssuming([]Lit{PosLit(g)})
		rel.Release(NegLit(g))
	}
	want := []Stats{
		{Decisions: 6707, Propagations: 71782, Conflicts: 5402, Restarts: 28, Learnt: 5394, DeletedCls: 5032, MinimizedLit: 11495, SolveCalls: 1},
		{Decisions: 1890, Propagations: 48856, Conflicts: 1546, Restarts: 9, Learnt: 1538, DeletedCls: 1201, MinimizedLit: 4342, SolveCalls: 1},
		{Decisions: 22720, Propagations: 168483, Conflicts: 11178, Restarts: 70, Learnt: 11138, DeletedCls: 11358, MinimizedLit: 23187, SolveCalls: 40},
	}
	for i, s := range []*Solver{php, r3, rel} {
		if got := s.Stats(); got != want[i] {
			t.Errorf("search %d: stats %#v, want %#v", i, got, want[i])
		}
	}
}

// watchers counts the entries of every watch list.
func (s *Solver) watchers() int {
	n := 0
	for _, ws := range s.watches {
		n += len(ws)
	}
	return n
}

// guardedPHP3 adds pigeonhole clauses for 4 pigeons in 3 holes over vars,
// every one carrying ¬guard, plus the guarded binaries guard → x and
// guard → ¬y: an instance Unsat under guard that learns clauses.
func guardedPHP3(s *Solver, guard Var, vars []Var, x, y Var) {
	g := NegLit(guard)
	for p := 0; p < 4; p++ {
		s.AddClause(g, PosLit(vars[3*p]), PosLit(vars[3*p+1]), PosLit(vars[3*p+2]))
	}
	for h := 0; h < 3; h++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := p1 + 1; p2 < 4; p2++ {
				s.AddClause(g, NegLit(vars[3*p1+h]), NegLit(vars[3*p2+h]))
			}
		}
	}
	s.AddClause(g, PosLit(x))
	s.AddClause(g, NegLit(y))
}

// TestReleaseReclaimsStorage: Release deletes the guarded clauses,
// binaries included, and the learnt clauses conditioned on the guard, and
// takes their index slots and watchers with them. NumClauses and the
// watcher count return to their pre-guard values, and over 2 000
// guard/solve/release rounds the clause index never holds more than the
// live clauses and learnts.
func TestReleaseReclaimsStorage(t *testing.T) {
	s := newSolverWithVars(14) // 12 pigeon-hole variables, x and y
	vars := make([]Var, 12)
	for i := range vars {
		vars[i] = Var(i)
	}
	x, y := Var(12), Var(13)
	s.AddClause(PosLit(x), PosLit(y))
	s.AddClause(NegLit(x), PosLit(vars[0]), NegLit(vars[5]))
	clauses, watchers := s.NumClauses(), s.watchers()
	for round := 0; round < 2000; round++ {
		g := s.NewVar()
		guardedPHP3(s, g, vars, x, y)
		if got := s.SolveAssuming([]Lit{PosLit(g)}); got != Unsat {
			t.Fatalf("round %d: guarded pigeonhole %v, want Unsat", round, got)
		}
		if round == 0 && s.Stats().Learnt == 0 {
			t.Fatal("the guarded instance learnt nothing: learnt clauses go unchecked")
		}
		if !s.Release(NegLit(g)) {
			t.Fatalf("round %d: release made the solver inconsistent", round)
		}
		if got := s.NumClauses(); got != clauses {
			t.Fatalf("round %d: %d problem clauses after release, want %d", round, got, clauses)
		}
		if got := s.watchers(); got != watchers+2*len(s.learnts) {
			t.Fatalf("round %d: %d watchers after release, want %d and 2 per learnt clause", round, got, watchers)
		}
		if live := s.NumClauses() - s.nBin + len(s.learnts); len(s.cls) != live {
			t.Fatalf("round %d: clause index holds %d slots for %d live clauses", round, len(s.cls), live)
		}
	}
	if len(s.learnts) != 0 {
		t.Fatalf("%d learnt clauses survived their guards' release", len(s.learnts))
	}
}
