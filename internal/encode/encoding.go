package encode

// SliceEncoding: the build-once / solve-many split of the SAT engine.
//
// The paper leans on Z3's incremental interface so that the many invariants
// checked over one slice amortize a single solver context. This file is
// that mechanism for VMN's built-in solver: everything the encoding shares
// between invariants — selector variables, state bits, frame/transition
// axioms, the per-step path guards — is built exactly once per
// (slice × samples × schedule bound), and each invariant then only grounds
// its own "bad" formula, asserts it under an activation literal and decides
// it with SolveAssuming. Learnt clauses, saved phases and VSIDS activity
// persist across those solves, so invariant k+1 starts from everything the
// solver discovered about the shared structure while solving invariants
// 1..k, and a re-verification of a previously seen invariant reuses its
// activation literal outright.
//
// Violation witnesses are canonical: on Sat the engine extracts the
// lexicographically least violating schedule (step by step, each step's
// least feasible choice found by a binary search of assumption solves),
// which is a function of the formula alone. A warm shared encoding and a
// cold fresh one therefore return bit-identical traces — solver history can
// never leak into results, which is what keeps core's encoding cache and
// the incremental layer verdict-transparent.

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
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
// verification problem, grounded once and solved many times. It is valid
// for exactly the problem content captured by AppendEncodingKey: the
// transfer engine's behaviour fingerprint, failure scenario, hop bound,
// ordered middlebox configurations, packet alphabet, schedule bound and
// solver options. Verify calls are serialized internally, so one encoding
// may be shared by concurrent verifications (core's check pool, the
// incremental layer's re-verification pool).
type SliceEncoding struct {
	mu   sync.Mutex
	ctx  *smt.Ctx
	opts Options

	// K is the schedule bound; choices the (sample, class) alphabet with
	// enumerated journeys, which may be shared through the journey cache
	// and are read-only.
	K       int
	choices []choice
	nPaths  int   // total journey paths across all choices
	pathOff []int // per choice: offset of its first path in flat order

	// sel[t][c] selects choice c at step t; index len(choices) is the
	// scheduler's "do nothing" option.
	sel [][]smt.Form
	// refs is the sorted state-bit universe; bits[ri][t] is S[refs[ri], t].
	refs []keyRef
	bits [][]smt.Form
	// guards[t*nPaths+gp] memoizes the path condition of global path gp at
	// step t (selector ∧ assumed state bits) — shared by the frame axioms,
	// event grounding and trace extraction, which previously each rebuilt
	// identical And nodes. A path's events are stored once, in its jpath:
	// an event of path gp happens at step t under guards[t*nPaths+gp].
	guards []smt.Form

	// acts maps a grounded bad formula (by interned ID, which is identical
	// for structurally identical formulas) to its activation literal, so
	// re-verifying an invariant reuses its assertion and the learnt clauses
	// conditioned on it.
	acts map[smt.FormID]smt.Form

	hitsBuf []smt.Form // scratch for atom grounding
	solves  int64
}

// NewSliceEncoding enumerates the problem's journeys (through
// opts.Journeys when set) and grounds the invariant-independent axioms:
// selector constraints, boot state, frame/transition axioms and the
// per-step path guards. The returned encoding serves any invariant whose
// problem has identical AppendEncodingKey content. Construction allocates
// in proportion to what it keeps (see journeys and the sat package's
// slabs); the CNF it emits is pinned by TestSliceEncodingCNFPinned.
func NewSliceEncoding(p *inv.Problem, opts Options) (*SliceEncoding, error) {
	opts = opts.withDefaults()
	if p.MaxSends <= 0 {
		return nil, fmt.Errorf("encode: MaxSends must be positive")
	}
	boxIdx := map[topo.NodeID]int{}
	for i, b := range p.Boxes {
		if _, ok := mbox.SetStateKeys(b.Model.InitState()); !ok {
			return nil, fmt.Errorf("encode: middlebox %s has non-boolean state (%T); use the explicit engine",
				p.Topo.Node(b.Node).Name, b.Model.InitState())
		}
		boxIdx[b.Node] = i
	}
	choices, err := enumerateChoices(p, opts, boxIdx)
	if err != nil {
		return nil, err
	}

	ctx := smt.NewCtx()
	ctx.Solver().SetSeed(opts.Seed)
	ctx.Solver().SetRandomBranchFreq(opts.RandomBranchFreq)
	e := &SliceEncoding{
		ctx:     ctx,
		opts:    opts,
		K:       p.MaxSends,
		choices: choices,
		acts:    map[smt.FormID]smt.Form{},
	}
	for _, c := range choices {
		e.pathOff = append(e.pathOff, e.nPaths)
		e.nPaths += len(c.paths)
	}

	// Selector variables: sel[t][c] plus an implicit "none" choice.
	e.sel = make([][]smt.Form, e.K)
	for t := 0; t < e.K; t++ {
		row := make([]smt.Form, len(choices)+1)
		for c := range row {
			row[c] = ctx.FreshBool()
		}
		e.sel[t] = row
		ctx.AssertExactlyOne(row)
	}

	// State bits. Universe = all refs mentioned by any path, in sorted
	// order so variable numbering is deterministic per build.
	universe := map[keyRef]bool{}
	for _, c := range choices {
		for _, pth := range c.paths {
			for _, cond := range pth.conds {
				universe[cond.ref] = true
			}
			for _, s := range pth.sets {
				universe[s] = true
			}
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
					universe[keyRef{bi, k}] = true
				}
			}
		}
	}
	e.refs = make([]keyRef, 0, len(universe))
	for r := range universe {
		e.refs = append(e.refs, r)
	}
	sort.Slice(e.refs, func(i, j int) bool {
		if e.refs[i].box != e.refs[j].box {
			return e.refs[i].box < e.refs[j].box
		}
		return e.refs[i].key < e.refs[j].key
	})
	refIdx := make(map[keyRef]int32, len(e.refs))
	e.bits = make([][]smt.Form, len(e.refs))
	for ri, r := range e.refs {
		refIdx[r] = int32(ri)
		row := make([]smt.Form, e.K+1)
		for t := range row {
			row[t] = ctx.FreshBool()
		}
		e.bits[ri] = row
		ctx.Assert(ctx.Not(row[0])) // boot state: empty sets
	}

	// Path guards, memoized per (step, path): selector ∧ assumed bits.
	e.guards = make([]smt.Form, e.K*e.nPaths)
	parts := make([]smt.Form, 0, 8)
	for t := 0; t < e.K; t++ {
		for ci, c := range choices {
			for pi, pth := range c.paths {
				parts = parts[:0]
				parts = append(parts, e.sel[t][ci])
				for _, cond := range pth.conds {
					b := e.bits[refIdx[cond.ref]][t]
					if !cond.val {
						b = ctx.Not(b)
					}
					parts = append(parts, b)
				}
				e.guards[t*e.nPaths+e.pathOff[ci]+pi] = ctx.And(parts...)
			}
		}
	}

	// Frame/transition axioms, from a per-ref setter index instead of the
	// old full rescan of every path per (ref, step).
	setters := make([][]int32, len(e.refs))
	for ci, c := range choices {
		for pi, pth := range c.paths {
			gp := int32(e.pathOff[ci] + pi)
			for _, s := range pth.sets {
				ri := refIdx[s]
				setters[ri] = append(setters[ri], gp)
			}
		}
	}
	disj := make([]smt.Form, 0, 8)
	for ri := range e.refs {
		for t := 0; t < e.K; t++ {
			disj = disj[:0]
			disj = append(disj, e.bits[ri][t])
			for _, gp := range setters[ri] {
				disj = append(disj, e.guards[t*e.nPaths+int(gp)])
			}
			next := e.bits[ri][t+1]
			ctx.Assert(ctx.Iff(next, ctx.Or(disj...)))
		}
	}

	return e, nil
}

// enumerateChoices expands the (sample, class assignment) alphabet and
// enumerates each choice's journeys, sharing enumerations across
// invariants and encodings through the optional cache. Every choice's
// cache key is built in one buffer behind the problem's key prefix.
func enumerateChoices(p *inv.Problem, opts Options, boxIdx map[topo.NodeID]int) ([]choice, error) {
	var key []byte
	if opts.Journeys != nil {
		var ok bool
		if key, ok = appendProblemKey(nil, p, opts); !ok {
			opts.Journeys = nil // unfingerprintable box: no memoization
		}
	}
	prefix := len(key)
	classes := p.ClassAssignments()
	choices := make([]choice, 0, len(p.Samples)*len(classes))
	for _, s := range p.Samples {
		for _, cls := range classes {
			c := choice{sample: s, classes: cls}
			enumerate := func() ([]jpath, error) { return journeys(p, opts, boxIdx, s, cls) }
			var err error
			if opts.Journeys != nil {
				key = appendChoiceKey(key[:prefix], s, cls)
				c.paths, err = opts.Journeys.paths(string(key), enumerate)
			} else {
				c.paths, err = enumerate()
			}
			if err != nil {
				return nil, err
			}
			choices = append(choices, c)
		}
	}
	return choices, nil
}

// WriteDIMACS writes the encoding's CNF in DIMACS format: the shared
// axioms, plus the activation clauses of the invariants it has served.
func (e *SliceEncoding) WriteDIMACS(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctx.Solver().WriteDIMACS(w)
}

// Solves reports how many invariant checks this encoding has served.
func (e *SliceEncoding) Solves() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.solves
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
	opts = opts.withDefaults()
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
// asserting the guarded formula on first use. ok=false means bad is
// unreachable within the bound: the invariant holds without a solve (and
// without poisoning the shared solver with an empty clause, which is what
// asserting false on a fresh context used to do).
func (e *SliceEncoding) activate(p *inv.Problem) (act smt.Form, ok bool) {
	ctx := e.ctx
	bad := p.Invariant.Bad(p)
	grounded := logic.Ground(ctx, bad, e.K, func(a *logic.Atom, t int) smt.Form {
		hits := e.hitsBuf[:0]
		guards := e.guards[t*e.nPaths:]
		for ci, c := range e.choices {
			for pi, pth := range c.paths {
				for _, ev := range pth.events {
					if a.Pred(ev) {
						hits = append(hits, guards[e.pathOff[ci]+pi])
					}
				}
			}
		}
		e.hitsBuf = hits // Or copies what it keeps; reuse the scratch
		return ctx.Or(hits...)
	})
	badForm := ctx.Or(grounded...)
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
// order, "do nothing" last) selector assignment satisfying the active bad
// formula. With the earlier steps fixed, each step's least feasible choice
// is found by binary search: the selector row is exactly-one, so "some
// choice ≤ mid" is the assumption ¬sel[t][c] for every c > mid, and a step
// costs at most ⌈log₂(|choices|+1)⌉ solves without adding a clause. The
// schedule fully determines the state bits (the frame axioms are
// equivalences from an all-false boot state), so the extracted trace is a
// function of the formula alone — independent of solver history, learnt
// state or which engine path built the encoding.
func (e *SliceEncoding) extractTrace(act smt.Form) []logic.Event {
	cur, path := e.lexMinSchedule(act)
	var out []logic.Event
	for t, ci := range cur {
		if ci < len(e.choices) {
			out = append(out, e.choices[ci].paths[path[t]].events...)
		}
	}
	return out
}

// lexMinSchedule returns the canonical schedule's choice per step and the
// path each chosen packet took, starting from the current (satisfying)
// model.
func (e *SliceEncoding) lexMinSchedule(act smt.Form) (cur, path []int) {
	ctx := e.ctx
	cur, path = make([]int, e.K), make([]int, e.K)
	e.readSchedule(cur, path)
	assume := make([]smt.Form, 1, e.K+len(e.choices)+1)
	assume[0] = act
	for t := 0; t < e.K; t++ {
		for lo := 0; lo < cur[t]; {
			mid := (lo + cur[t] - 1) / 2
			probe := assume // a probe's exclusions fill assume's spare capacity
			for c := mid + 1; c < len(e.sel[t]); c++ {
				probe = append(probe, ctx.Not(e.sel[t][c]))
			}
			if ctx.SolveAssuming(probe...) == sat.Sat {
				e.readSchedule(cur, path) // cur[t] ≤ mid; later steps improve too
			} else {
				lo = mid + 1
			}
		}
		assume = append(assume, e.sel[t][cur[t]])
	}
	return cur, path
}

// readSchedule reads the selected choice per step, and the path its packet
// took, from the current model. cur only changes here, so the final
// schedule's paths are those of the last satisfying model.
func (e *SliceEncoding) readSchedule(cur, path []int) {
	for t := 0; t < e.K; t++ {
		cur[t] = len(e.choices)
		for c := 0; c < len(e.choices); c++ {
			if e.ctx.EvalForm(e.sel[t][c]) == sat.True {
				cur[t] = c
				break
			}
		}
		if cur[t] == len(e.choices) {
			continue
		}
		base := t*e.nPaths + e.pathOff[cur[t]]
		for pi := range e.choices[cur[t]].paths {
			if e.ctx.EvalForm(e.guards[base+pi]) == sat.True {
				path[t] = pi
				break
			}
		}
	}
}
