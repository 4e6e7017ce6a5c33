package encode

// SliceEncoding: the ground-on-demand / solve-many split of the SAT engine.
//
// The paper leans on Z3's incremental interface so that the many invariants
// checked over one slice amortize a single solver context. This file is
// that mechanism for VMN's built-in solver. An encoding is built once per
// (slice × samples × schedule bound) with only the journeys; each
// invariant grounds what its cone of influence reaches that no earlier
// invariant did (see activate), selectors of the choices it reaches
// included (see admit), then its own "bad" formula, which
// it asserts under an activation literal and decides with SolveAssuming.
// The grounding, learnt clauses, saved phases and VSIDS activity persist
// across those solves, and a re-verification of a previously seen
// invariant reuses its activation literal outright.
//
// Violation witnesses are canonical: on Sat the engine extracts the
// lexicographically least violating schedule (step by step, each step's
// least feasible choice found by a binary search of assumption solves),
// which is a function of the formula alone. A warm shared encoding and a
// cold fresh one therefore return bit-identical traces — solver history can
// never leak into results, which is what keeps core's encoding cache and
// the incremental layer verdict-transparent.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/smt"
	"github.com/netverify/vmn/internal/topo"
)

// maxEncodingInvariants bounds the activation literals kept live on one
// encoding; overflowing releases all of them (their guarded clauses and any
// learnt clauses conditioned on them are garbage-collected) and later
// solves re-assert from the persistent Tseitin gates, which is cheap.
const maxEncodingInvariants = 512

// SliceEncoding is the invariant-independent part of a bounded
// verification problem, grounded on demand and solved many times. It is
// valid for exactly the problem content captured by AppendEncodingKey:
// the transfer engine's behaviour fingerprint, failure scenario, hop
// bound, ordered middlebox configurations, packet alphabet, schedule bound
// and solver options. Verify calls are serialized internally, so one
// encoding may be shared by concurrent verifications (core's check pool,
// the incremental layer's re-verification pool).
type SliceEncoding struct {
	mu  sync.Mutex
	ctx *smt.Ctx

	// K is the schedule bound; choices the (sample, class) alphabet with
	// enumerated journeys, which may be shared through the journey cache
	// and are read-only.
	K       int
	choices []choice
	// paths lists every choice's journeys in choice order; global path gp
	// is paths[gp], a journey of choice pathChoice[gp].
	paths      []*jpath
	pathChoice []int32

	// sel[c][t] selects choice c at step t once c is admitted (nil before);
	// admitted lists the admitted choices in alphabet order. rest[t] is
	// step t doing nothing or picking a choice not admitted (see admit),
	// and stands for alphabet position idle, the least choice not
	// admitted, or len(choices) ("do nothing") when all are.
	sel      [][]smt.Form
	admitted []int32
	rest     []smt.Form
	idle     int
	// refs is the sorted state-bit universe, refIdx its inverse, and
	// setters[ri] the global paths that set refs[ri].
	refs    []keyRef
	refIdx  map[keyRef]int32
	setters [][]int32
	// bits[ri][t] is S[refs[ri], t] and guards[gp][t] the path condition
	// of global path gp at step t (selector ∧ assumed state bits), each nil
	// until grounded. An event of path gp happens at step t under
	// guards[gp][t]. grounded lists the grounded bits in grounding order;
	// closeCone has asserted the boot units and frame axioms of the first
	// closed of them.
	bits     [][]smt.Form
	guards   [][]smt.Form
	grounded []int32
	closed   int

	// acts maps a grounded bad formula (by interned ID, which is identical
	// for structurally identical formulas) to its activation literal, so
	// re-verifying an invariant reuses its assertion and the learnt clauses
	// conditioned on it.
	acts map[smt.FormID]smt.Form

	formBuf []smt.Form // scratch for guards, frame axioms and atom hits
	solves  int64
}

// NewSliceEncoding enumerates the problem's journeys (through
// opts.Journeys when set) and builds what every invariant needs: the
// sorted state-bit universe and the per-ref setter index. Selectors, state
// bits, frame axioms and path guards are grounded later, as invariants
// reach them (see activate); with opts.GroundAllReadKeys every choice is
// admitted and every state bit and all it needs grounded here. The
// returned encoding serves any invariant whose problem has identical
// AppendEncodingKey content. The CNF it emits after serving the fixtures'
// invariants is pinned by TestSliceEncodingCNFPinned.
func NewSliceEncoding(p *inv.Problem, opts Options) (*SliceEncoding, error) {
	if p.MaxSends <= 0 {
		return nil, fmt.Errorf("encode: MaxSends must be positive")
	}
	boxIdx, rel := map[topo.NodeID]int{}, make([]pkt.ClassSet, len(p.Boxes))
	for i, b := range p.Boxes {
		if _, ok := mbox.SetStateKeys(b.Model.InitState()); !ok {
			return nil, fmt.Errorf("encode: middlebox %s has non-boolean state (%T); use the explicit engine",
				p.Topo.Node(b.Node).Name, b.Model.InitState())
		}
		boxIdx[b.Node], rel[i] = i, b.Model.RelevantClasses(p.Registry)
	}
	choices, err := enumerateChoices(p, opts, boxIdx, rel)
	if err != nil {
		return nil, err
	}

	ctx := smt.NewCtx()
	e := &SliceEncoding{
		ctx:     ctx,
		K:       p.MaxSends,
		choices: choices,
		sel:     make([][]smt.Form, len(choices)),
		rest:    make([]smt.Form, p.MaxSends),
		acts:    map[smt.FormID]smt.Form{},
	}
	for t := range e.rest {
		e.rest[t] = ctx.True() // admit splits selectors off
	}
	for ci := range choices {
		for pi := range choices[ci].paths {
			e.paths = append(e.paths, &choices[ci].paths[pi])
			e.pathChoice = append(e.pathChoice, int32(ci))
		}
	}

	// The state-bit universe (refIdx's keys) is every ref a path mentions,
	// sorted so grounding order, and so variable numbering, is deterministic.
	e.refIdx = map[keyRef]int32{}
	for _, pth := range e.paths {
		for _, cond := range pth.conds {
			e.refIdx[cond.ref] = 0
		}
		for _, s := range pth.sets {
			e.refIdx[s] = 0
		}
	}
	if opts.GroundAllReadKeys {
		for bi, b := range p.Boxes {
			reader, ok := b.Model.(mbox.KeyReader)
			if !ok {
				continue
			}
			for _, c := range choices {
				in := mbox.Input{From: c.sample.Sender, Hdr: c.sample.Hdr, Classes: c.classes}
				for _, k := range reader.ReadKeys(in) {
					e.refIdx[keyRef{bi, k}] = 0
				}
			}
		}
	}
	for r := range e.refIdx {
		e.refs = append(e.refs, r)
	}
	slices.SortFunc(e.refs, func(a, b keyRef) int {
		return cmp.Or(cmp.Compare(a.box, b.box), strings.Compare(a.key, b.key))
	})
	for ri, r := range e.refs {
		e.refIdx[r] = int32(ri)
	}
	e.setters = make([][]int32, len(e.refs))
	for gp, pth := range e.paths {
		for _, s := range pth.sets {
			ri := e.refIdx[s]
			e.setters[ri] = append(e.setters[ri], int32(gp))
		}
	}
	e.bits = make([][]smt.Form, len(e.refs))
	e.guards = make([][]smt.Form, len(e.paths))
	if opts.GroundAllReadKeys {
		for ci := range choices {
			e.admit(int32(ci))
		}
		for ri := range e.refs {
			e.groundBit(int32(ri))
		}
		e.closeCone()
	}
	return e, nil
}

// admit gives choice c its selectors, once: at each step a fresh sel and
// a fresh rest' split the step's rest, with rest ↔ sel ∨ rest' and
// ¬(sel ∧ rest'), so exactly one of the step's admitted selectors and its
// rest holds. A choice not admitted sets no grounded bit (closeCone admits
// every setter of one) and matches no grounded atom (activate admits every
// path an atom matches), so for every asserted clause picking it is
// picking rest, and rest stands for the least such choice, idle.
func (e *SliceEncoding) admit(c int32) {
	if e.sel[c] != nil {
		return
	}
	ctx := e.ctx
	row := make([]smt.Form, e.K)
	for t := range row {
		sel, rest := ctx.FreshBool(), ctx.FreshBool()
		if e.rest[t].IsTrue() {
			ctx.AssertClause(sel, rest)
		} else {
			ctx.AssertIffOr(e.rest[t], sel, rest)
		}
		ctx.AssertClause(ctx.Not(sel), ctx.Not(rest))
		row[t], e.rest[t] = sel, rest
	}
	e.sel[c] = row
	i, _ := slices.BinarySearch(e.admitted, c)
	e.admitted = slices.Insert(e.admitted, i, c)
	for e.idle < len(e.sel) && e.sel[e.idle] != nil {
		e.idle++
	}
}

// groundBit creates the variables of state bit ri at every step, once, and
// leaves its boot unit and frame axioms to closeCone.
func (e *SliceEncoding) groundBit(ri int32) {
	if e.bits[ri] != nil {
		return
	}
	row := make([]smt.Form, e.K+1)
	for t := range row {
		row[t] = e.ctx.FreshBool()
	}
	e.bits[ri] = row
	e.grounded = append(e.grounded, ri)
}

// groundPath builds the guards of global path gp at every step, once,
// admitting its choice and grounding the state bits its conds read.
func (e *SliceEncoding) groundPath(gp int32) {
	if e.guards[gp] != nil {
		return
	}
	pth, ci := e.paths[gp], e.pathChoice[gp]
	e.admit(ci)
	for _, c := range pth.conds {
		e.groundBit(e.refIdx[c.ref])
	}
	row := make([]smt.Form, e.K)
	parts := e.formBuf
	for t := range row {
		parts = append(parts[:0], e.sel[ci][t])
		for _, c := range pth.conds {
			b := e.bits[e.refIdx[c.ref]][t]
			if !c.val {
				b = e.ctx.Not(b)
			}
			parts = append(parts, b)
		}
		row[t] = e.ctx.And(parts...)
	}
	e.guards[gp], e.formBuf = row, parts
}

// closeCone asserts the boot unit and frame axioms
//
//	¬S[r,0],  S[r,t+1] ↔ S[r,t] ∨ ⋁ guards of the paths setting r at t
//
// of every grounded bit not closed yet, grounding those setter paths
// (and, through their conds, more bits) until all are closed. Afterwards
// every grounded bit and guard is defined by asserted clauses from the
// selectors alone, exactly as in a fully grounded encoding, and everything
// not grounded only defines variables no asserted clause mentions.
func (e *SliceEncoding) closeCone() {
	for ; e.closed < len(e.grounded); e.closed++ {
		ri := e.grounded[e.closed]
		for _, gp := range e.setters[ri] {
			e.groundPath(gp)
		}
		row := e.bits[ri]
		e.ctx.Assert(e.ctx.Not(row[0]))
		for t := 0; t < e.K; t++ {
			disj := append(e.formBuf[:0], row[t])
			for _, gp := range e.setters[ri] {
				disj = append(disj, e.guards[gp][t])
			}
			e.formBuf = disj
			e.ctx.AssertIffOr(row[t+1], disj...)
		}
	}
}

// enumerateChoices expands the (sample, class assignment) alphabet and
// enumerates each sample's journeys (sampleJourneys), sharing enumerations
// across invariants and encodings through the optional cache, where the
// problem is interned once and each sample looked up under its journeyKey.
func enumerateChoices(p *inv.Problem, opts Options, boxIdx map[topo.NodeID]int, rel []pkt.ClassSet) ([]choice, error) {
	classes := p.ClassAssignments()
	enumerate := func(s inv.Sample) (journeySet, error) { return sampleJourneys(p, boxIdx, rel, s, classes) }
	var sets []journeySet
	var err error
	if key, ok := appendProblemKey(nil, p); ok && opts.Journeys != nil {
		sets, err = opts.Journeys.sets(opts.Journeys.problem(key), p.Samples, enumerate)
	} else { // no cache, or an unfingerprintable box: no memoization
		sets = make([]journeySet, len(p.Samples))
		for i := 0; i < len(sets) && err == nil; i++ {
			sets[i], err = enumerate(p.Samples[i])
		}
	}
	if err != nil {
		return nil, err
	}
	choices := make([]choice, 0, len(p.Samples)*len(classes))
	for si, s := range p.Samples {
		set := sets[si]
		for ci, cls := range classes {
			if set.shared {
				ci = 0
			}
			choices = append(choices, choice{sample: s, classes: cls, paths: set.paths[ci], shared: set.shared})
		}
	}
	return choices, nil
}

// sampleJourneys enumerates sample s's journeys under each of classes:
// once, under the first, when every other assignment gives the same
// journeys but for their class label (see journeys), and once per
// assignment otherwise.
func sampleJourneys(p *inv.Problem, boxIdx map[topo.NodeID]int, rel []pkt.ClassSet, s inv.Sample, classes []pkt.ClassSet) (journeySet, error) {
	paths, shared, err := journeys(p, boxIdx, rel, s, classes[0], classes[1:])
	set := journeySet{paths: [][]jpath{paths}, shared: shared}
	for _, cls := range classes[1:] {
		if err != nil || shared {
			break
		}
		paths, _, err = journeys(p, boxIdx, rel, s, cls, nil)
		set.paths = append(set.paths, paths)
	}
	return set, err
}

// Clauses calls fn with each clause of the encoding's CNF (see
// sat.Solver.Clauses), the shared axioms plus the activation clauses of
// the invariants it has served, and returns its variable count.
func (e *SliceEncoding) Clauses(fn func(lits []sat.Lit)) (vars int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ctx.Solver().Clauses(fn)
	return e.ctx.Solver().NumVars()
}

// Grounded reports how many state bits the encoding's invariants have
// grounded and how many choices they have admitted so far, each out of
// how many it has.
func (e *SliceEncoding) Grounded() (bits, ofBits, choices, ofChoices int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.grounded), len(e.refs), len(e.admitted), len(e.choices)
}

// SolverStats exposes the shared solver's accumulated work counters.
func (e *SliceEncoding) SolverStats() sat.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctx.Solver().Stats()
}

// Verify decides one invariant on the shared encoding: it grounds the
// invariant's bad formula over the schedule (hash-consed, so repeats are
// nearly free), asserts it under a per-formula activation literal and
// solves under that assumption. Result.SolverConflicts counts only this
// call's work. Safe for concurrent use; calls serialize on the encoding.
func (e *SliceEncoding) Verify(p *inv.Problem, opts Options) (inv.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ctx := e.ctx
	e.solves++
	act, ok := e.activate(p)
	if !ok {
		return inv.Result{Outcome: inv.Holds}, nil
	}

	// The conflict budget is per Solve call on the shared solver; witness
	// extraction below runs unbudgeted (the verdict is already in hand).
	ctx.Solver().SetMaxConflicts(opts.MaxConflicts)
	start := ctx.Solver().Stats().Conflicts
	st := ctx.SolveAssuming(act)
	res := inv.Result{}
	switch st {
	case sat.Sat:
		res.Outcome = inv.Violated
		ctx.Solver().SetMaxConflicts(0)
		res.Trace = e.extractTrace(act)
	case sat.Unsat:
		res.Outcome = inv.Holds
	default:
		res.Outcome = inv.Unknown
	}
	res.SolverConflicts = ctx.Solver().Stats().Conflicts - start
	return res, nil
}

// activate grounds p's bad formula and returns its activation literal,
// asserting the guarded formula on first use. Grounding an atom grounds
// the paths with a matching event, and closeCone then grounds the cone of
// influence those guards reach. ok=false means bad is unreachable within
// the bound: the invariant holds without a solve (and without poisoning
// the shared solver with an empty clause, which is what asserting false on
// a fresh context used to do).
func (e *SliceEncoding) activate(p *inv.Problem) (act smt.Form, ok bool) {
	ctx := e.ctx
	bad := p.Invariant.Bad(p)
	matches := map[*logic.Atom][]int32{} // per atom: the paths it matches
	perStep := logic.Ground(ctx, bad, e.K, func(a *logic.Atom, t int) smt.Form {
		gps, ok := matches[a]
		if !ok {
			for gp, pth := range e.paths {
				c := &e.choices[e.pathChoice[gp]]
				for _, ev := range pth.events {
					if a.Pred(c.event(ev)) {
						e.groundPath(int32(gp))
						gps = append(gps, int32(gp))
						break
					}
				}
			}
			matches[a] = gps
		}
		hits := e.formBuf[:0]
		for _, gp := range gps {
			hits = append(hits, e.guards[gp][t])
		}
		e.formBuf = hits // Or copies what it keeps; reuse the scratch
		return ctx.Or(hits...)
	})
	e.closeCone()
	badForm := ctx.Or(perStep...)
	if badForm.IsFalse() {
		return act, false
	}
	if act, ok = e.acts[badForm.ID()]; ok {
		return act, true
	}
	if len(e.acts) >= maxEncodingInvariants {
		rel := make([]smt.Form, 0, len(e.acts))
		for _, a := range e.acts {
			rel = append(rel, a)
		}
		ctx.ReleaseGuard(rel...)
		e.acts = map[smt.FormID]smt.Form{}
	}
	act = ctx.FreshBool()
	ctx.AssertGuarded(act, badForm)
	e.acts[badForm.ID()] = act
	return act, true
}

// extractTrace derives the canonical violating schedule after a Sat
// verdict: the lexicographically least (step-major, choices in alphabet
// order, "do nothing" last) schedule over the whole alphabet satisfying
// the active bad formula. A step's candidates are its admitted choices and
// rest, which stands for idle, the least choice it covers (see admit).
// With the earlier steps fixed, each step's least feasible candidate is
// found by binary search: exactly one candidate holds, so "some candidate
// ≤ mid" is the assumption that every candidate above mid does not, and a
// step costs at most ⌈log₂(|candidates|)⌉ solves without adding a clause.
// The schedule fully determines the state bits (the frame axioms are
// equivalences from an all-false boot state), so the extracted trace is a
// function of the formula alone — independent of solver history, learnt
// state, which engine path built the encoding or which choices its
// earlier invariants admitted.
func (e *SliceEncoding) extractTrace(act smt.Form) []logic.Event {
	return e.replay(e.lexMinSchedule(act))
}

// lexMinSchedule returns the canonical schedule's alphabet position per
// step, starting from the current (satisfying) model. A step's candidates
// are cands: the admitted choices and idle, whose selector is rest.
func (e *SliceEncoding) lexMinSchedule(act smt.Form) []int {
	ctx := e.ctx
	cands := slices.Insert(slices.Clone(e.admitted), e.idle, int32(e.idle)) // every choice below idle is admitted
	selector := func(t, i int) smt.Form {
		if i == e.idle {
			return e.rest[t]
		}
		return e.sel[cands[i]][t]
	}
	cur := make([]int, e.K) // each step's candidate in the current model
	read := func() {
		for t := range cur {
			cur[t] = e.idle
			for i := range cands {
				if i != e.idle && ctx.EvalForm(selector(t, i)) == sat.True {
					cur[t] = i
					break
				}
			}
		}
	}
	read()
	assume := make([]smt.Form, 1, e.K+len(cands)+1)
	assume[0] = act
	sched := make([]int, e.K)
	for t := range cur {
		for lo := 0; lo < cur[t]; {
			mid := (lo + cur[t] - 1) / 2
			probe := assume // a probe's exclusions fill assume's spare capacity
			for i := mid + 1; i < len(cands); i++ {
				probe = append(probe, ctx.Not(selector(t, i)))
			}
			if ctx.SolveAssuming(probe...) == sat.Sat {
				read() // cur[t] ≤ mid; later steps improve too
			} else {
				lo = mid + 1
			}
		}
		if f := selector(t, cur[t]); !f.IsTrue() { // true: nothing admitted
			assume = append(assume, f)
		}
		sched[t] = int(cands[cur[t]])
	}
	return sched
}

// replay runs the schedule from the all-false boot state and returns its
// trace: at each step, the events of the first path of the chosen packet
// whose conds hold, stamped with its classes, whose sets then hold too. The schedule fully
// determines the state bits, so that is the path whose guard any model of
// the schedule makes true, whether or not the guard was grounded.
func (e *SliceEncoding) replay(sched []int) []logic.Event {
	state := make([]bool, len(e.refs))
	var out []logic.Event
	for _, ci := range sched {
		if ci == len(e.choices) {
			continue
		}
		ch := &e.choices[ci]
	paths:
		for _, pth := range ch.paths {
			for _, c := range pth.conds {
				if state[e.refIdx[c.ref]] != c.val {
					continue paths
				}
			}
			for _, r := range pth.sets {
				state[e.refIdx[r]] = true
			}
			for _, ev := range pth.events {
				out = append(out, ch.event(ev))
			}
			break
		}
	}
	return out
}
