package sat

import (
	"slices"
	"sort"
)

// Status is the result of a Solve call.
type Status int8

// Solve outcomes.
const (
	// Unsat means the formula (under the given assumptions) has no model.
	Unsat Status = iota
	// Sat means a model was found; retrieve it with Model or Value.
	Sat
	// Unknown means the conflict budget was exhausted before a verdict.
	Unknown
)

// String returns "UNSAT", "SAT" or "UNKNOWN".
func (s Status) String() string {
	switch s {
	case Unsat:
		return "UNSAT"
	case Sat:
		return "SAT"
	default:
		return "UNKNOWN"
	}
}

// Stats counts solver work. It is reset by Reset but accumulates across
// Solve calls on the same instance.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
	DeletedCls   int64
	MinimizedLit int64
	SolveCalls   int64 // SolveAssuming calls, Solve included
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New. A Solver is not safe for concurrent use. It has no
// source of randomness: its search depends only on its clauses and the
// order of its assumptions.
type Solver struct {
	clauses []*clause
	learnts []*clause
	watches [][]watcher // indexed by Lit

	// Problem clauses (struct and literals) and watch-list storage are
	// carved out of slabs; see carve.
	clauseSlab []clause
	litSlab    []Lit
	watchSlab  []watcher
	addBuf     []Lit // AddClause's sort-and-dedupe scratch

	assigns  []Tribool // per Var
	polarity []bool    // saved phase per Var: last assigned sign
	activity []float64
	order    *varOrder
	varInc   float64
	varDecay float64

	claInc   float64
	claDecay float64

	trail    []Lit
	trailLim []int
	reason   []*clause
	level    []int32
	qhead    int

	seen      []byte
	minimStk  []Lit
	toClear   []Lit
	confLits  []Lit // final conflict clause over assumptions
	ok        bool
	model     []Tribool
	maxLearnt float64

	// budget; 0 means unlimited. conflBase is the conflict count at the
	// start of the current Solve call, so the budget is per call rather
	// than cumulative across an incrementally reused instance.
	maxConflicts int64
	conflBase    int64

	stats Stats
}

// New creates an empty solver with default parameters.
func New() *Solver {
	s := &Solver{
		varInc:   1.0,
		varDecay: 0.95,
		claInc:   1.0,
		claDecay: 0.999,
		ok:       true,
	}
	s.order = newVarOrder(&s.activity)
	return s
}

// SetMaxConflicts bounds the number of conflicts explored by each
// subsequent Solve call; when a call exceeds the budget it returns Unknown.
// Zero means unlimited. The budget is per call — not cumulative — so a
// solver instance reused across many queries (the incremental encoding
// path) gives every query the same allowance. This mirrors the timeout
// discipline the paper describes for SMT solvers.
func (s *Solver) SetMaxConflicts(n int64) { s.maxConflicts = n }

// budgetExceeded reports whether the current Solve call burned through its
// conflict allowance.
func (s *Solver) budgetExceeded() bool {
	return s.maxConflicts > 0 && s.stats.Conflicts-s.conflBase >= s.maxConflicts
}

// Stats returns a copy of the work counters.
func (s *Solver) Stats() Stats { return s.stats }

// NumVars returns the number of variables allocated so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem (non-learnt) clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, Undef)
	s.polarity = append(s.polarity, true) // default phase: false
	s.activity = append(s.activity, 0)
	s.reason = append(s.reason, nil)
	s.level = append(s.level, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.grow(len(s.assigns))
	s.order.push(v)
	return v
}

func (s *Solver) litValue(l Lit) Tribool {
	return s.assigns[l.Var()].xorSign(l.Sign())
}

// Value returns the value of v in the most recent model (after a Sat
// result), or Undef if no model is available.
func (s *Solver) Value(v Var) Tribool {
	if int(v) >= len(s.model) {
		return Undef
	}
	return s.model[v]
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals. It returns false if the
// solver became inconsistent (an empty clause was derived at level 0); once
// false, all subsequent Solve calls return Unsat. Duplicate literals are
// merged and tautologies are silently accepted.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called above decision level 0")
	}
	// Sort, dedupe, drop level-0 false literals, detect tautology/satisfied.
	// Clauses are overwhelmingly short, so insertion sort beats the
	// reflection-based sort.Slice that used to dominate clause loading.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	if len(ls) <= 16 {
		for i := 1; i < len(ls); i++ {
			for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
				ls[j], ls[j-1] = ls[j-1], ls[j]
			}
		}
	} else {
		slices.Sort(ls)
	}
	out := ls[:0]
	var prev Lit = LitUndef
	for _, l := range ls {
		if int(l.Var()) >= len(s.assigns) {
			panic("sat: clause references unallocated variable")
		}
		switch {
		case s.litValue(l) == True:
			return true // clause already satisfied at level 0
		case s.litValue(l) == False:
			continue // literal can never help
		case l == prev:
			continue // duplicate
		case prev != LitUndef && l == prev.Neg():
			return true // tautology p ∨ ¬p
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		s.ok = s.propagate() == nil
		return s.ok
	}
	c := &carve(&s.clauseSlab, 1)[0]
	c.lits = carve(&s.litSlab, len(out))
	copy(c.lits, out)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// slabMin is the size of a solver's first slab of each kind. Every later
// slab doubles the last, up to slabMax elements, so a solver of a handful
// of clauses pays for a handful, a big one allocates a few slabs instead
// of one object per clause and per watch-list growth, and a long-lived one
// never starts a slab much larger than what it still needs.
const (
	slabMin = 16
	slabMax = 1 << 14
)

// carve returns n fresh elements of *slab, capacity-limited so that an
// append to them can never run into a neighbour's, starting a new slab
// when the current one is short. A slab lives as long as anything carved
// from it: the space of a clause Release deleted, or of a segment a watch
// list outgrew, is reclaimed with its whole slab, in practice with the
// solver.
func carve[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(min(2*cap(*slab), slabMax), slabMin, n))
	}
	i := len(*slab)
	*slab = (*slab)[:i+n]
	return (*slab)[i : i+n : i+n]
}

// watch appends w to l's watch list. A full list moves to a segment of
// twice its capacity carved from the watch slab.
func (s *Solver) watch(l Lit, w watcher) {
	ws := s.watches[l]
	if len(ws) == cap(ws) {
		grown := carve(&s.watchSlab, max(2*cap(ws), 4))
		ws = grown[:copy(grown, ws)]
	}
	s.watches[l] = append(ws, w)
}

func (s *Solver) attach(c *clause) {
	s.watch(c.lits[0], watcher{c, c.lits[1]})
	s.watch(c.lits[1], watcher{c, c.lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = False
	} else {
		s.assigns[v] = True
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the watch lists and returns the
// conflicting clause, or nil if a fixpoint was reached without conflict.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.stats.Propagations++
		falseLit := p.Neg()
		ws := s.watches[falseLit]
		kept := ws[:0]
		var confl *clause
	scan:
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.litValue(w.blocker) == True {
				kept = append(kept, w)
				continue
			}
			c := w.c
			if c.deleted {
				continue // drop watcher of a removed clause
			}
			// Normalize: the false literal sits at position 1.
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == True {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a replacement watch.
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != False {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watch(c.lits[1], watcher{c, first})
					continue scan
				}
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.litValue(first) == False {
				confl = c
				s.qhead = len(s.trail)
				// Keep the remaining watchers untouched.
				kept = append(kept, ws[wi+1:]...)
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[falseLit] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *Solver) varBump(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.bump(v)
}

func (s *Solver) varDecayActivity() { s.varInc /= s.varDecay }

func (s *Solver) claBump(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecayActivity() { s.claInc /= s.claDecay }

// analyze derives a first-UIP learnt clause from the conflict confl.
// It returns the learnt literals (asserting literal first) and the level to
// backjump to.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{LitUndef} // slot 0 reserved for the asserting literal
	pathC := 0
	p := LitUndef
	idx := len(s.trail) - 1

	for {
		s.claBump(confl)
		start := 0
		if p != LitUndef {
			start = 1 // lits[0] of a reason clause is the propagated literal
		}
		for _, q := range confl.lits[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.varBump(v)
				s.seen[v] = 1
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Clause minimization: drop literals implied by the rest of the clause.
	s.toClear = s.toClear[:0]
	for _, l := range learnt {
		s.seen[l.Var()] = 1
		s.toClear = append(s.toClear, l)
	}
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.reason[l.Var()] == nil || !s.litRedundant(l) {
			out = append(out, l)
		} else {
			s.stats.MinimizedLit++
		}
	}
	learnt = out
	for _, l := range s.toClear {
		s.seen[l.Var()] = 0
	}

	// Backjump level: highest level below the current one.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the other literals of the
// clause being minimized (all marked in seen). It walks the implication
// graph; any antecedent literal that is neither seen nor removable makes l
// necessary.
func (s *Solver) litRedundant(l Lit) bool {
	s.minimStk = s.minimStk[:0]
	s.minimStk = append(s.minimStk, l)
	top := len(s.toClear)
	for len(s.minimStk) > 0 {
		p := s.minimStk[len(s.minimStk)-1]
		s.minimStk = s.minimStk[:len(s.minimStk)-1]
		c := s.reason[p.Var()]
		for _, q := range c.lits[1:] {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == nil {
				// Reached a decision not in the clause: l is needed.
				for _, r := range s.toClear[top:] {
					s.seen[r.Var()] = 0
				}
				s.toClear = s.toClear[:top]
				return false
			}
			s.seen[v] = 1
			s.toClear = append(s.toClear, q)
			s.minimStk = append(s.minimStk, q)
		}
	}
	return true
}

// cancelUntil undoes all assignments above the given decision level,
// saving phases for future branching.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == False
		s.assigns[v] = Undef
		s.reason[v] = nil
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchLit() Lit {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] == Undef {
			return MkLit(v, s.polarity[v])
		}
	}
	return LitUndef
}

// locked reports whether c is the reason for its first literal's current
// assignment (such clauses must not be deleted).
func (s *Solver) locked(c *clause) bool {
	l := c.lits[0]
	return s.litValue(l) == True && s.reason[l.Var()] == c
}

// reduceDB removes roughly half of the learnt clauses, preferring
// low-activity, high-LBD ones. Binary and locked clauses are kept.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := s.learnts[i], s.learnts[j]
		if (a.lbd <= 2) != (b.lbd <= 2) {
			return a.lbd <= 2 // glue clauses first (kept)
		}
		return a.activity > b.activity
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if i < limit || c.len() == 2 || c.lbd <= 2 || s.locked(c) {
			keep = append(keep, c)
			continue
		}
		c.deleted = true
		s.stats.DeletedCls++
	}
	s.learnts = keep
}

func (s *Solver) computeLBD(lits []Lit) int32 {
	levels := map[int32]struct{}{}
	for _, l := range lits {
		levels[s.level[l.Var()]] = struct{}{}
	}
	return int32(len(levels))
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), uint(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}

// search runs CDCL until a verdict or until nConflicts conflicts occurred
// (then returns Unknown to trigger a restart).
func (s *Solver) search(nConflicts int64, assumps []Lit) Status {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true, lbd: s.computeLBD(learnt)}
				s.learnts = append(s.learnts, c)
				s.stats.Learnt++
				s.attach(c)
				s.claBump(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varDecayActivity()
			s.claDecayActivity()
			continue
		}
		// No conflict.
		if conflicts >= nConflicts {
			s.cancelUntil(0)
			return Unknown
		}
		if s.budgetExceeded() {
			s.cancelUntil(0)
			return Unknown
		}
		if float64(len(s.learnts)) >= s.maxLearnt {
			s.reduceDB()
		}
		// Select the next decision: pending assumptions first.
		next := LitUndef
		for s.decisionLevel() < len(assumps) {
			a := assumps[s.decisionLevel()]
			switch s.litValue(a) {
			case True:
				// Already satisfied: open an empty level to keep indices aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case False:
				s.analyzeFinal(a.Neg())
				return Unsat
			default:
				next = a
			}
			break
		}
		if next == LitUndef {
			next = s.pickBranchLit()
			if next == LitUndef {
				// All variables assigned: model found.
				s.model = append(s.model[:0], s.assigns...)
				return Sat
			}
			s.stats.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, nil)
	}
}

// analyzeFinal computes the subset of assumptions responsible for
// falsifying literal p; it is retrievable via ConflictLits.
func (s *Solver) analyzeFinal(p Lit) {
	s.confLits = s.confLits[:0]
	s.confLits = append(s.confLits, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == nil {
			s.confLits = append(s.confLits, s.trail[i].Neg())
		} else {
			for _, l := range s.reason[v].lits[1:] {
				if s.level[l.Var()] > 0 {
					s.seen[l.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

// ConflictLits returns the final conflict clause over the assumptions from
// the last Unsat answer of SolveAssuming (the analogue of an unsat core).
func (s *Solver) ConflictLits() []Lit { return s.confLits }

// Solve decides the formula added so far.
func (s *Solver) Solve() Status { return s.SolveAssuming(nil) }

// SolveAssuming decides the formula under the given assumption literals.
// When the result is Unsat, ConflictLits reports which assumptions clash.
//
// Solver state — learnt clauses, variable activity, saved phases — persists
// across calls, and learnt clauses are always implied by the problem
// clauses alone (assumptions enter conflict analysis as decisions, so any
// learnt clause that depends on an assumption contains its negation as a
// literal). Callers may therefore interleave SolveAssuming calls for many
// related queries on one instance and each query warms up the next.
func (s *Solver) SolveAssuming(assumps []Lit) Status {
	s.stats.SolveCalls++
	if !s.ok {
		return Unsat
	}
	s.model = s.model[:0]
	s.conflBase = s.stats.Conflicts
	s.maxLearnt = float64(len(s.clauses))/3 + 100
	var restarts int64
	for {
		budget := 100 * luby(restarts+1)
		st := s.search(budget, assumps)
		if st != Unknown {
			s.cancelUntil(0)
			return st
		}
		if s.budgetExceeded() {
			s.cancelUntil(0)
			return Unknown
		}
		restarts++
		s.stats.Restarts++
		s.maxLearnt *= 1.05
	}
}

// Release permanently asserts the given literals (typically negated
// activation literals of retired queries) and garbage-collects every
// clause they satisfy. An activation-literal discipline — assert query
// clauses as (¬a ∨ C), solve with assumption a — combined with
// Release(¬a) removes a retired query's clauses, and any learnt clauses
// conditioned on it, from the clause database for good. Must be called
// between Solve calls (at decision level 0). Returns false if the solver
// became inconsistent.
func (s *Solver) Release(lits ...Lit) bool {
	for _, l := range lits {
		if !s.AddClause(l) {
			return false
		}
	}
	s.gcSatisfied()
	return s.ok
}

// gcSatisfied removes all clauses satisfied at decision level 0 from the
// clause database. Watch lists drop their watchers lazily (propagation
// skips and discards deleted clauses), matching reduceDB's mechanism.
func (s *Solver) gcSatisfied() {
	if s.decisionLevel() != 0 {
		panic("sat: gcSatisfied called above decision level 0")
	}
	satisfied := func(c *clause) bool {
		for _, l := range c.lits {
			if s.litValue(l) == True {
				return true
			}
		}
		return false
	}
	sweep := func(cls []*clause) []*clause {
		keep := cls[:0]
		for _, c := range cls {
			if satisfied(c) {
				c.deleted = true
				s.stats.DeletedCls++
				continue
			}
			keep = append(keep, c)
		}
		return keep
	}
	s.clauses = sweep(s.clauses)
	s.learnts = sweep(s.learnts)
	// Level-0 assignments are permanent facts; clear reason pointers into
	// deleted clauses (conflict analysis never resolves on level-0
	// variables, so the reasons are unused anyway).
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nil && r.deleted {
			s.reason[l.Var()] = nil
		}
	}
}
