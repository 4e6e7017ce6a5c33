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
func (s Status) String() string { return [...]string{"UNSAT", "SAT", "UNKNOWN"}[s] }

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

// Add returns the sum of two sets of counters.
func (a Stats) Add(b Stats) Stats {
	a.Decisions += b.Decisions
	a.Propagations += b.Propagations
	a.Conflicts += b.Conflicts
	a.Restarts += b.Restarts
	a.Learnt += b.Learnt
	a.DeletedCls += b.DeletedCls
	a.MinimizedLit += b.MinimizedLit
	a.SolveCalls += b.SolveCalls
	return a
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New. A Solver is not safe for concurrent use. It has no
// source of randomness: its search depends only on its clauses and the
// order of its assumptions.
type Solver struct {
	cls     []clause // clause records by cref: long problem clauses and learnts
	learnts []cref
	nBin    int         // binary problem clauses, which live only in watches
	watches [][]watcher // indexed by Lit

	// Problem clauses' literals and watch-list storage are carved out of
	// slabs; see carve.
	litSlab   []Lit
	watchSlab []watcher
	addBuf    []Lit // AddClause's sort-and-dedupe scratch

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
	reason   []cref // per Var
	level    []int32
	qhead    int

	seen      []byte
	binTail   [1]Lit   // reasonTail's result for an implicit binary
	lbdStamp  []uint32 // per decision level: the computeLBD call that last saw it
	lbdCalls  uint32
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
func (s *Solver) NumClauses() int { return len(s.cls) - len(s.learnts) + s.nBin }

// Clauses calls fn with each problem clause (learnt clauses excluded),
// level-0 assignments first as unit clauses, so that the clauses are
// equisatisfiable with the solver state. The order of the clauses, and of
// the literals within one, is unspecified; fn must not keep or modify lits.
// Call it between solves, at decision level 0.
func (s *Solver) Clauses(fn func(lits []Lit)) {
	for i := range s.trail {
		fn(s.trail[i : i+1])
	}
	for i := range s.cls {
		if !s.cls[i].learnt {
			fn(s.cls[i].lits)
		}
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			if w.cref == noClause && Lit(l) < w.blocker {
				fn([]Lit{Lit(l), w.blocker})
			}
		}
	}
}

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, Undef)
	s.polarity = append(s.polarity, true) // default phase: false
	s.activity = append(s.activity, 0)
	s.reason = append(s.reason, noClause)
	s.level = append(s.level, 0)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.indices = append(s.order.indices, -1)
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
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls) // insertion sort, for the short clauses most are
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
		s.uncheckedEnqueue(out[0], noClause)
		_, head := s.propagate()
		s.ok = head == LitUndef
		return s.ok
	case 2:
		s.watch(out[0], watcher{noClause, out[1]})
		s.watch(out[1], watcher{noClause, out[0]})
		s.nBin++
		return true
	}
	cl := carve(&s.litSlab, len(out))
	copy(cl, out)
	s.cls = append(s.cls, clause{lits: cl})
	s.attach(cref(len(s.cls) - 1))
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

func (s *Solver) attach(cr cref) {
	lits := s.cls[cr].lits
	s.watch(lits[0], watcher{cr, lits[1]})
	s.watch(lits[1], watcher{cr, lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
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

// propagate performs unit propagation over the watch lists. It returns the
// conflicting clause as head, its first literal, and confl, whose
// reasonTail is the rest; head is LitUndef at a fixpoint without conflict.
// An implicit binary's watcher acts as its clause would.
func (s *Solver) propagate() (confl cref, head Lit) {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.stats.Propagations++
		falseLit := p.Neg()
		ws := s.watches[falseLit]
		kept := ws[:0]
		head = LitUndef
	scan:
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.litValue(w.blocker) == True {
				kept = append(kept, w)
				continue
			}
			first, from := w.blocker, binReason(falseLit)
			if w.cref != noClause {
				c := &s.cls[w.cref]
				// Normalize: the false literal sits at position 1.
				if c.lits[0] == falseLit {
					c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
				}
				first, from = c.lits[0], w.cref
				if first != w.blocker && s.litValue(first) == True {
					kept = append(kept, watcher{w.cref, first})
					continue
				}
				// Look for a replacement watch.
				for k := 2; k < len(c.lits); k++ {
					if s.litValue(c.lits[k]) != False {
						c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
						s.watch(c.lits[1], watcher{w.cref, first})
						continue scan
					}
				}
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.cref, first})
			if s.litValue(first) == False {
				confl, head = from, first
				s.qhead = len(s.trail)
				// Keep the remaining watchers untouched.
				kept = append(kept, ws[wi+1:]...)
				break
			}
			s.uncheckedEnqueue(first, from)
		}
		s.watches[falseLit] = kept
		if head != LitUndef {
			return confl, head
		}
	}
	return noClause, LitUndef
}

// reasonTail returns the literals of reason r other than the one it
// implied: a clause's lits[1:], or an implicit binary's other literal, in
// scratch storage valid until the next call.
func (s *Solver) reasonTail(r cref) []Lit {
	if r >= 0 {
		return s.cls[r].lits[1:]
	}
	s.binTail[0] = Lit(-2 - r)
	return s.binTail[:]
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

// claBump raises the activity of a learnt clause; other reasons have none.
func (s *Solver) claBump(cr cref) {
	if cr < 0 || !s.cls[cr].learnt {
		return
	}
	c := &s.cls[cr]
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			s.cls[lc].activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecayActivity() { s.claInc /= s.claDecay }

// analyze derives a first-UIP learnt clause from the conflict propagate
// returned. It returns the learnt literals (asserting literal first) and
// the level to backjump to.
func (s *Solver) analyze(confl cref, head Lit) ([]Lit, int) {
	learnt := []Lit{LitUndef} // slot 0 reserved for the asserting literal
	pathC := 0
	var p Lit
	idx := len(s.trail) - 1
	visit := func(q Lit) {
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
	visit(head)
	for {
		s.claBump(confl)
		for _, q := range s.reasonTail(confl) {
			visit(q)
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
		if s.reason[l.Var()] == noClause || !s.litRedundant(l) {
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
		for _, q := range s.reasonTail(s.reason[p.Var()]) {
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == noClause {
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
		s.reason[v] = noClause
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

// locked reports whether clause cr is the reason for its first literal's
// current assignment (such clauses must not be deleted).
func (s *Solver) locked(cr cref) bool {
	l := s.cls[cr].lits[0]
	return s.litValue(l) == True && s.reason[l.Var()] == cr
}

// reduceDB removes roughly half of the learnt clauses, preferring
// low-activity, high-LBD ones. Binary and locked clauses are kept.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		a, b := &s.cls[s.learnts[i]], &s.cls[s.learnts[j]]
		if (a.lbd <= 2) != (b.lbd <= 2) {
			return a.lbd <= 2 // glue clauses first (kept)
		}
		return a.activity > b.activity
	})
	limit := len(s.learnts) / 2
	for i, cr := range s.learnts {
		if c := &s.cls[cr]; i >= limit && len(c.lits) > 2 && c.lbd > 2 && !s.locked(cr) {
			c.deleted = true
			s.stats.DeletedCls++
		}
	}
	s.collect(false)
}

// collect removes the clauses marked deleted and, with satisfied (at
// level 0 only), every clause satisfied at level 0, implicit binaries
// included, counting each once. Their watchers go; the survivors, and the
// reasons naming them, are renumbered in order. Analysis never reads a
// level-0 reason, so one into a removed clause does no harm. Surviving
// watchers keep their order, so propagation visits them as before.
func (s *Solver) collect(satisfied bool) {
	isTrue := func(l Lit) bool { return s.litValue(l) == True }
	remap := make([]cref, len(s.cls))
	n := cref(0)
	for i := range s.cls {
		c := &s.cls[i]
		if satisfied && !c.deleted && slices.ContainsFunc(c.lits, isTrue) {
			c.deleted = true
			s.stats.DeletedCls++
		}
		remap[i] = noClause
		if !c.deleted {
			remap[i] = n
			s.cls[n] = *c
			n++
		}
	}
	clear(s.cls[n:])
	s.cls = s.cls[:n]
	learnts := s.learnts[:0]
	for _, cr := range s.learnts {
		if remap[cr] != noClause {
			learnts = append(learnts, remap[cr])
		}
	}
	s.learnts = learnts
	for l, ws := range s.watches {
		kept := ws[:0]
		for _, w := range ws {
			switch {
			case w.cref != noClause:
				if w.cref = remap[w.cref]; w.cref == noClause {
					continue
				}
			case satisfied && (isTrue(Lit(l)) || isTrue(w.blocker)):
				if Lit(l) < w.blocker {
					s.nBin--
					s.stats.DeletedCls++
				}
				continue
			}
			kept = append(kept, w)
		}
		s.watches[l] = kept
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r >= 0 {
			s.reason[l.Var()] = remap[r]
		}
	}
}

// computeLBD counts the distinct decision levels of lits, stamping each
// level with the call's number instead of collecting them in a set.
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdCalls++
	n := int32(0)
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		if lv >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, make([]uint32, lv+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lv] != s.lbdCalls {
			s.lbdStamp[lv] = s.lbdCalls
			n++
		}
	}
	return n
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
		if confl, head := s.propagate(); head != LitUndef {
			s.stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, btLevel := s.analyze(confl, head)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noClause)
			} else {
				cr := cref(len(s.cls))
				s.cls = append(s.cls, clause{lits: learnt, learnt: true, lbd: s.computeLBD(learnt)})
				s.learnts = append(s.learnts, cr)
				s.stats.Learnt++
				s.attach(cr)
				s.claBump(cr)
				s.uncheckedEnqueue(learnt[0], cr)
			}
			s.varDecayActivity()
			s.claDecayActivity()
			continue
		}
		// No conflict.
		if conflicts >= nConflicts || s.budgetExceeded() {
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
		s.uncheckedEnqueue(next, noClause)
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
		if s.reason[v] == noClause {
			s.confLits = append(s.confLits, s.trail[i].Neg())
		} else {
			for _, l := range s.reasonTail(s.reason[v]) {
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
	s.confLits = s.confLits[:0] // an inconsistent formula clashes with no assumption
	if !s.ok {
		return Unsat
	}
	s.model = s.model[:0]
	s.conflBase = s.stats.Conflicts
	s.maxLearnt = float64(s.NumClauses())/3 + 100
	var restarts int64
	for {
		budget := 100 * luby(restarts+1)
		if st := s.search(budget, assumps); st != Unknown || s.budgetExceeded() {
			s.cancelUntil(0)
			return st
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
	s.collect(true)
	return s.ok
}
