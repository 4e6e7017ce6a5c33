// Package core assembles VMN: it takes a network description (topology,
// per-failure-scenario forwarding state, middlebox instances, policy
// classes), an invariant set, and produces verdicts. It implements the
// paper's §4 scaling machinery — slicing to keep per-invariant work
// independent of network size, and symmetry to verify one representative
// per policy-equivalent invariant group — and dispatches bounded
// verification to the SAT-based engine (internal/encode, the Z3 analogue)
// or the explicit-state engine (internal/explore).
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netverify/vmn/internal/encode"
	"github.com/netverify/vmn/internal/explore"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/lru"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/symmetry"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Network is a complete VMN input: topology plus configuration.
type Network struct {
	Topo     *topo.Topology
	Boxes    []mbox.Instance
	Registry *pkt.Registry
	// PolicyClass labels each host/external node with its policy
	// equivalence class (§4.1); unlabeled nodes are singletons.
	PolicyClass map[topo.NodeID]string
	// FIBFor maps a failure scenario to the forwarding state the static
	// datapath uses in that scenario (§3.5's failure-condition → transfer
	// function mapping). It must at least handle topo.NoFailures().
	FIBFor func(topo.FailureScenario) tf.FIB
}

// EngineKind selects the verification backend.
type EngineKind int8

// Engine kinds.
const (
	// EngineAuto uses the SAT engine when every middlebox is encodable and
	// falls back to the explicit engine otherwise.
	EngineAuto EngineKind = iota
	// EngineSAT forces the bounded-model-checking (Z3-analogue) backend.
	EngineSAT
	// EngineExplicit forces the explicit-state backend.
	EngineExplicit
)

// String names the engine.
func (e EngineKind) String() string {
	switch e {
	case EngineSAT:
		return "sat"
	case EngineExplicit:
		return "explicit"
	default:
		return "auto"
	}
}

// ParseEngine is the inverse of EngineKind.String.
func ParseEngine(s string) (EngineKind, error) {
	for _, e := range []EngineKind{EngineAuto, EngineSAT, EngineExplicit} {
		if e.String() == s {
			return e, nil
		}
	}
	return EngineAuto, fmt.Errorf("unknown engine %q", s)
}

// Options tune verification.
type Options struct {
	Engine EngineKind
	// NoSlices disables §4.1 slicing: every invariant is verified against
	// the whole network (the paper's baseline mode in Figs. 7–9).
	NoSlices bool
	// MaxSends overrides the schedule bound (0 = per-invariant default).
	MaxSends int
	// Scenarios are the failure scenarios to verify under; empty means
	// just the fault-free network.
	Scenarios []topo.FailureScenario
	// MaxConflicts bounds the SAT engine's work per solve (0 = unlimited).
	MaxConflicts int64
	// Workers bounds core's parallelism: VerifyAll's and VerifyInvariant's
	// check pool and the explicit engine's search (0 = GOMAXPROCS); reports
	// are identical for every value, up to the work they measure (Duration,
	// SolverConflicts).
	Workers int
	// NoSolverReuse disables the SAT engine's incremental path (cached
	// slice encodings solved per invariant under activation-literal
	// assumptions): every check then builds and solves a fresh encoding.
	// Verdicts and traces are identical either way — the engine extracts
	// canonical witnesses — so the toggle exists for benchmarking and
	// differential testing, not correctness. With a MaxConflicts budget,
	// warm and cold solvers may spend it differently, so Unknown outcomes
	// can differ between the two modes.
	NoSolverReuse bool
	// NoCanon disables canonical slice normalization: every check is then
	// solved in its own namespace, with no class-level verdict sharing in
	// VerifyAll and no cross-namespace encoding reuse. Like NoSolverReuse
	// this is an escape hatch for benchmarking and differential testing —
	// canonical mode is verdict- and trace-identical by construction (and
	// by the differential suite in internal/bench).
	NoCanon bool
	// Obs, when non-nil, receives phase spans (encode/solve) and registers
	// export-time gauges (cache and canonicalization counters, aggregate
	// solver statistics) on its metrics registry. Nil disables all
	// instrumentation at the cost of one pointer check per site. Not part
	// of any content fingerprint.
	Obs *obs.Obs
}

// AppendVerdictKey appends the options a verdict is a function of — the
// prologue of every verdict key (canonical class and encoding keys, exact
// fingerprints, the state directory's configuration hash). The conflict
// budget is included because violation witnesses are canonical but Unknown
// outcomes under a budget are not.
func (o Options) AppendVerdictKey(b []byte) []byte {
	b = append(b, byte(o.Engine))
	b = binary.AppendUvarint(b, uint64(o.MaxSends))
	if o.NoSlices {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return binary.AppendVarint(b, o.MaxConflicts)
}

// Report is the verdict for one (invariant, scenario) pair.
type Report struct {
	Invariant inv.Invariant
	Scenario  topo.FailureScenario
	Result    inv.Result
	// Satisfied compares the outcome against the invariant's expectation.
	Satisfied bool
	// SliceHosts/SliceBoxes are the verified subnetwork's size; Whole
	// marks that no proper slice was available (or slicing was disabled).
	SliceHosts int
	SliceBoxes int
	Whole      bool
	Engine     string
	Duration   time.Duration
	// Reused marks verdicts inherited from a symmetry-group representative.
	Reused bool
	// CanonShared marks verdicts inherited from a canonical-equivalence-
	// class representative: the check was proven isomorphic to the
	// representative's, and its witness (if any) is the representative's
	// translated through the inverse renaming.
	CanonShared bool
	// Slice is the verified slice itself — provenance for incremental
	// verification (internal/incr), which derives dependency footprints
	// and verdict-cache fingerprints from it.
	Slice slices.Result
	// Cached marks verdicts served from an incremental verdict cache
	// without re-solving.
	Cached bool
	// BudgetExceeded marks a check that ran out of budget — solver
	// conflicts, explicit-state bound, or a request deadline — instead of
	// reaching a verdict. The outcome is Unknown and Satisfied is false
	// (conservative); such reports are never cached by the incremental
	// layer, so the check re-runs once budget allows.
	BudgetExceeded bool
}

// Verifier verifies invariants over a network. It caches compiled
// transfer engines and memoizes SAT-engine journey enumerations across
// invariants, with every cache keyed by content fingerprints (forwarding
// state, failure scenario, middlebox configurations), so in-place network
// mutations between verification calls are picked up on the next call —
// the mutate-and-reverify pattern of the examples stays valid. Do not
// mutate the network concurrently with a running verification; the
// verification methods themselves are safe for concurrent use.
type Verifier struct {
	net  *Network
	opts Options

	mu sync.Mutex
	// engines interns engines by behaviour fingerprint; a colliding
	// fingerprint replaces the engine it collides with.
	engines  *lru.Cache[uint64, *tf.Engine]
	journeys *encode.JourneyCache
	// encodings is keyed by canonical encoding keys when the problem
	// canonicalizes, exact content keys otherwise. A slot is pinned while
	// its build is in flight.
	encodings *lru.Cache[string, *encSlot]
	encHits   int64
	encMisses int64

	// Canonicalization counters (see CanonStats).
	canonClasses       int64
	canonShared        int64
	canonEncTranslated int64

	// retiredSolver accumulates the solver statistics of evicted encodings
	// so SolverStats stays a lifetime aggregate across LRU churn.
	retiredSolver sat.Stats
}

// encSlot is one encoding-cache entry. The slot is inserted before the
// encoding is built and the build runs under the once, so concurrent
// first-touches of one key (core's check pool, the incremental
// re-verification pool) share a single construction instead of racing to
// build duplicates. Build errors are cached too: they are deterministic
// functions of the keyed content, and the auto-engine path treats them as
// "use the explicit engine" consistently.
type encSlot struct {
	once sync.Once
	// enc, err, exact and ren are written once, under the verifier's mu,
	// when the build completes; enc is nil until then.
	enc *encode.SliceEncoding
	err error

	// exact is the builder problem's exact content key; ren its canonical
	// encoding renaming (nil for exact-keyed slots). A canonical-key hit
	// whose exact key differs is an isomorphic-but-renamed problem: it is
	// translated into the builder's namespace before solving (see
	// verifySAT).
	exact []byte
	ren   *slices.Renaming
}

// NewVerifier builds a verifier; opts zero value means defaults (auto
// engine, slicing on, fault-free scenario).
func NewVerifier(net *Network, opts Options) (*Verifier, error) {
	if net.Topo == nil || net.FIBFor == nil {
		return nil, fmt.Errorf("core: network needs a topology and a FIB provider")
	}
	// One model per middlebox node: every lookup of a node's box, the
	// slicer's and an edit's alike, then finds the same one.
	bound := make(map[topo.NodeID]bool, len(net.Boxes))
	for _, b := range net.Boxes {
		if b.Node < 0 || int(b.Node) >= net.Topo.NumNodes() || net.Topo.Node(b.Node).Kind != topo.Middlebox {
			return nil, fmt.Errorf("core: a model is bound at node %d, which is not a middlebox", b.Node)
		}
		if bound[b.Node] {
			return nil, fmt.Errorf("core: two models are bound at middlebox %q", net.Topo.Node(b.Node).Name)
		}
		bound[b.Node] = true
	}
	if net.Registry == nil {
		net.Registry = pkt.NewRegistry()
	}
	v := &Verifier{
		net:      net,
		opts:     opts,
		engines:  lru.New[uint64, *tf.Engine](engineCacheCap, nil),
		journeys: encode.NewJourneyCache(),
	}
	// An evicted encoding's solver work stays in the lifetime aggregate.
	v.encodings = lru.New(encodingCacheCap, func(_ string, slot *encSlot) {
		if slot.enc != nil {
			v.retiredSolver = v.retiredSolver.Add(slot.enc.SolverStats())
		}
	})
	v.registerMetrics()
	return v, nil
}

// registerMetrics publishes the verifier's cache, canonicalization and
// aggregate solver counters as export-time gauges: nothing on the verify
// hot path changes, the registry reads the counters the verifier already
// keeps when a snapshot or scrape asks for them.
func (v *Verifier) registerMetrics() {
	o := v.opts.Obs
	if o == nil || o.Metrics == nil {
		return
	}
	m := o.Metrics
	m.RegisterFunc("vmn_core_encoding_cache_hits", func() float64 { h, _ := v.EncodingCacheStats(); return float64(h) })
	m.RegisterFunc("vmn_core_encoding_cache_misses", func() float64 { _, mi := v.EncodingCacheStats(); return float64(mi) })
	m.RegisterFunc("vmn_core_journey_cache_hits", func() float64 { h, _ := v.JourneyCacheStats(); return float64(h) })
	m.RegisterFunc("vmn_core_journey_cache_misses", func() float64 { _, mi := v.JourneyCacheStats(); return float64(mi) })
	m.RegisterFunc("vmn_core_canon_classes", func() float64 { c, _, _ := v.CanonStats(); return float64(c) })
	m.RegisterFunc("vmn_core_canon_shared_checks", func() float64 { _, s, _ := v.CanonStats(); return float64(s) })
	m.RegisterFunc("vmn_core_canon_enc_translated", func() float64 { _, _, tr := v.CanonStats(); return float64(tr) })
	size := func(c interface{ Len() int }) func() float64 {
		return func() float64 {
			v.mu.Lock()
			defer v.mu.Unlock()
			return float64(c.Len())
		}
	}
	m.RegisterFunc("vmn_core_engines", size(v.engines))
	m.RegisterFunc("vmn_core_encodings", size(v.encodings))
	m.RegisterFunc("vmn_core_journeys", func() float64 { return float64(v.journeys.Len()) })
	m.RegisterFunc("vmn_sat_decisions_total", func() float64 { return float64(v.SolverStats().Decisions) })
	m.RegisterFunc("vmn_sat_propagations_total", func() float64 { return float64(v.SolverStats().Propagations) })
	m.RegisterFunc("vmn_sat_conflicts_total", func() float64 { return float64(v.SolverStats().Conflicts) })
	m.RegisterFunc("vmn_sat_restarts_total", func() float64 { return float64(v.SolverStats().Restarts) })
	m.RegisterFunc("vmn_sat_learnt_total", func() float64 { return float64(v.SolverStats().Learnt) })
}

// SolverStats aggregates SAT solver work counters (decisions,
// propagations, conflicts, restarts, learnt clauses, solve calls) across
// every slice encoding this verifier has built — live cached encodings
// plus the retired tally of evicted ones. Explicit-engine checks
// contribute nothing.
func (v *Verifier) SolverStats() sat.Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	total := v.retiredSolver
	v.encodings.Walk(func(_ string, slot *encSlot) bool {
		if slot.enc != nil {
			total = total.Add(slot.enc.SolverStats())
		}
		return true
	})
	return total
}

// engineCacheCap and encodingCacheCap bound the engine and encoding
// caches (DESIGN.md, "Bounded memory").
const (
	engineCacheCap   = 64
	encodingCacheCap = 128
)

// EngineFor returns the compiled transfer engine for a failure scenario.
// The forwarding state behind FIBFor is compiled from scratch on every
// call — the verifier keeps no reference to earlier rule lists, so
// mutations behind FIBFor, in place or not, take effect — and the result
// is interned (see EngineOn). Callers running many checks under one
// scenario should call this once and pass the engine to PlanOn /
// VerifyPlanned rather than recompiling per check; callers that know what
// changed (internal/incr) patch the previous engine's tables and intern
// through EngineOn instead.
func (v *Verifier) EngineFor(sc topo.FailureScenario) *tf.Engine {
	return v.EngineOn(tf.Compile(v.net.Topo, v.net.FIBFor(sc)), sc)
}

// EngineOn interns the engine that views tabs under sc. When a previously
// interned engine has the same behaviour fingerprint — and, ruling out
// collisions, the same scenario and table content — that one is returned,
// with its walk memoization warm from earlier invariants. Otherwise a new
// view is interned; if some interned engine already holds equal tables
// under another scenario the view is taken over those, so the scenarios
// of one forwarding state keep one compiled copy of it.
func (v *Verifier) EngineOn(tabs *tf.Tables, sc topo.FailureScenario) *tf.Engine {
	e := tabs.Engine(sc)
	v.mu.Lock()
	defer v.mu.Unlock()
	if old, ok := v.engines.Get(e.Fingerprint()); ok && old.SameBehaviour(e) {
		return old
	}
	v.engines.Walk(func(_ uint64, old *tf.Engine) bool {
		if t := old.Tables(); t.Equal(tabs) {
			if t != tabs {
				e = t.Engine(sc)
			}
			return false
		}
		return true
	})
	v.engines.Put(e.Fingerprint(), e)
	return e
}

// JourneyCacheStats reports the SAT engine's journey-memoization hits and
// misses accumulated by this verifier.
func (v *Verifier) JourneyCacheStats() (hits, misses int64) {
	return v.journeys.Stats()
}

// EncodingCacheStats reports the SAT engine's slice-encoding cache hits
// (invariants solved on a previously built shared encoding) and misses
// (encodings built) accumulated by this verifier.
func (v *Verifier) EncodingCacheStats() (hits, misses int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.encHits, v.encMisses
}

// encSlotFor returns the cached slot for key (hit=true), refreshing its
// recency, or inserts a fresh one, pinned until buildSlot completes it:
// evicting an in-flight slot would let a concurrent request for the same
// key start a duplicate construction.
func (v *Verifier) encSlotFor(key string) (*encSlot, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if slot, ok := v.encodings.Get(key); ok {
		v.encHits++
		return slot, true
	}
	slot := &encSlot{}
	v.encodings.Put(key, slot)
	v.encodings.Pin(key, true)
	v.encMisses++
	return slot, false
}

// buildSlot builds the encoding of p into the slot under key once, then
// unpins it. ren is the slot's canonical renaming (nil for exact keys).
func (v *Verifier) buildSlot(key string, slot *encSlot, p *inv.Problem, encOpts encode.Options, exact []byte, ren *slices.Renaming) {
	slot.once.Do(func() {
		sp := v.opts.Obs.Span("encode")
		enc, err := encode.NewSliceEncoding(p, encOpts)
		sp.End()
		v.mu.Lock()
		slot.enc, slot.err, slot.exact, slot.ren = enc, err, exact, ren
		v.encodings.Pin(key, false)
		v.mu.Unlock()
	})
}

// verifySAT runs one check through the SAT engine, reusing a cached slice
// encoding when the problem's key matches one already built: the invariant
// is then decided by an assumption solve on the shared solver, inheriting
// learnt clauses, phases and activity from every previous invariant over
// that slice. With canonicalization (plan non-nil with an encoding key)
// the cache is keyed canonically, so a symmetric-but-not-identical slice
// hits the warm encoding of an isomorphic one: the invariant is translated
// into the encoding's namespace, solved there, and its witness translated
// back — verdict- and trace-identical to solving in place, since witness
// extraction is canonical and the alphabets correspond positionally.
// Problems without content keys (a middlebox lacking a configuration
// fingerprint) and NoSolverReuse mode fall back to a fresh encoding per
// check.
func (v *Verifier) verifySAT(p *inv.Problem, encOpts encode.Options, plan *checkPlan) (inv.Result, error) {
	if v.opts.NoSolverReuse {
		return encode.Verify(p, encOpts)
	}
	exact, ok := encode.AppendEncodingKey(nil, p, encOpts)
	if !ok {
		return encode.Verify(p, encOpts)
	}
	var key string
	var ren *slices.Renaming
	if plan != nil && plan.encKey != nil {
		key, ren = "c"+string(plan.encKey), plan.encRen
	} else {
		key = "x" + string(exact)
	}
	slot, wasHit := v.encSlotFor(key)
	v.buildSlot(key, slot, p, encOpts, exact, ren)
	if slot.err != nil {
		return inv.Result{}, slot.err
	}
	if bytes.Equal(slot.exact, exact) {
		// Same namespace (the common case: many invariants over one
		// slice): solve directly.
		sp := v.opts.Obs.Span("solve")
		res, err := slot.enc.Verify(p, encOpts)
		sp.End()
		return res, err
	}
	// Isomorphic-but-renamed slice: carry the invariant and alphabet into
	// the encoding's namespace, solve warm, translate the witness back.
	res, ok, err := v.verifySATTranslated(p, encOpts, plan, slot)
	if err != nil || ok {
		return res, err
	}
	// Translation unsupported (a structural slot with no behavioural
	// carrier in the
	// invariant-independent encoding renaming): fall back to the exact
	// content key so repeats of this same problem still share. Retract
	// the canonical lookup's hit so the check counts one cache event,
	// not two — reuse rates are derived from these stats. (If this
	// goroutine was the slot's creator but a concurrent goroutine built
	// the encoding first under a different namespace, the lookup was a
	// miss and there is no hit to retract.)
	if wasHit {
		v.mu.Lock()
		v.encHits--
		v.mu.Unlock()
	}
	xkey := "x" + string(exact)
	xslot, _ := v.encSlotFor(xkey)
	v.buildSlot(xkey, xslot, p, encOpts, exact, nil)
	if xslot.err != nil {
		return inv.Result{}, xslot.err
	}
	sp := v.opts.Obs.Span("solve")
	res, err = xslot.enc.Verify(p, encOpts)
	sp.End()
	return res, err
}

// verifySATTranslated solves p on a warm encoding built from an isomorphic
// slice in a different namespace. ok=false means the problem could not be
// translated; the caller falls back to an exact-keyed encoding.
func (v *Verifier) verifySATTranslated(p *inv.Problem, encOpts encode.Options, plan *checkPlan, slot *encSlot) (inv.Result, bool, error) {
	ti, ok := translateInvariant(p.Invariant, plan.encRen, slot.ren)
	if !ok {
		return inv.Result{}, false, nil
	}
	ts, ok := translateSamples(p.Samples, plan.encRen, slot.ren)
	if !ok {
		return inv.Result{}, false, nil
	}
	pp := *p
	pp.Invariant = ti
	pp.Samples = ts
	sp := v.opts.Obs.Span("solve").Label("translated")
	res, err := slot.enc.Verify(&pp, encOpts)
	sp.End()
	if err != nil {
		return inv.Result{}, false, err
	}
	if len(res.Trace) > 0 {
		trace, ok := slot.ren.TranslateEvents(res.Trace, plan.encRen)
		if !ok {
			return inv.Result{}, false, nil
		}
		res.Trace = trace
	}
	v.mu.Lock()
	v.canonEncTranslated++
	v.mu.Unlock()
	return res, true, nil
}

// Network returns the verifier's network.
func (v *Verifier) Network() *Network { return v.net }

func (v *Verifier) scenarios() []topo.FailureScenario {
	if len(v.opts.Scenarios) == 0 {
		return []topo.FailureScenario{topo.NoFailures()}
	}
	return v.opts.Scenarios
}

// VerifyInvariant verifies one invariant under every configured failure
// scenario and returns one report per scenario, in scenario order. The
// scenarios' checks run on the Options.Workers pool.
func (v *Verifier) VerifyInvariant(i inv.Invariant) ([]Report, error) {
	scens := v.scenarios()
	engines := v.enginesFor(scens)
	out := make([]Report, len(scens))
	err := ForEachIndexed(len(scens), v.opts.Workers, func(si int) error {
		var err error
		out[si], err = v.verifyOn(i, scens[si], engines[si])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// enginesFor compiles one engine per scenario, in order and before any
// check runs, so the network's FIBFor is never called concurrently.
func (v *Verifier) enginesFor(scens []topo.FailureScenario) []*tf.Engine {
	engines := make([]*tf.Engine, len(scens))
	for si, sc := range scens {
		engines[si] = v.EngineFor(sc)
	}
	return engines
}

// VerifyAll verifies a set of invariants, collapsing symmetric invariants
// to one representative check (§4.2). Without symmetry the invariants are
// signed with no policy classes, so that only invariants asserting the same
// thing share a check. Reports for non-representative members are copies
// marked Reused.
//
// Unless Options.NoCanon is set, the remaining checks are further grouped
// into canonical equivalence classes — checks whose (slice, invariant)
// pairs canonicalize identically are provably isomorphic — and one
// representative per class is solved; the other members' reports are
// derived by translating the representative's witness through the inverse
// renamings, marked CanonShared. Unlike §4.2 symmetry this requires no
// symmetric-network assumption: the class key equality is the proof.
//
// Planning and the representative checks run on the Options.Workers pool;
// report content and order are identical to a one-worker run.
func (v *Verifier) VerifyAll(invs []inv.Invariant, useSymmetry bool) ([]Report, error) {
	cls := symmetry.Classifier{Topo: v.net.Topo}
	if useSymmetry {
		cls.HostClass = v.net.PolicyClass
	}
	sigs := make([]string, len(invs))
	for ii, i := range invs {
		sigs[ii] = cls.Signature(i)
	}
	groups := symmetry.Groups(sigs, invs)

	// One engine per scenario for the whole batch; the network is frozen
	// for the duration of a VerifyAll by contract.
	scens := v.scenarios()
	engines := v.enginesFor(scens)

	// Plan every (group representative, scenario) check: slice, problem
	// and canonical identity. Planning parallelizes alongside solving —
	// in canonical mode most checks never reach a solver, so key
	// construction would otherwise become the serial bottleneck.
	plans := make([][]*checkPlan, len(groups))
	for gi := range groups {
		plans[gi] = make([]*checkPlan, len(scens))
	}
	nChecks := len(groups) * len(scens)
	err := ForEachIndexed(nChecks, v.opts.Workers, func(i int) error {
		gi, si := i/len(scens), i%len(scens)
		plan, err := v.buildPlan(groups[gi].Representative, scens[si], engines[si])
		if err != nil {
			return err
		}
		plans[gi][si] = plan
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Cluster checks into canonical classes (first member is the class
	// representative; checks without a class key stay singleton).
	classes := symmetry.CanonClasses(len(groups), len(scens), func(gi, si int) []byte {
		return plans[gi][si].classKey
	})

	// Solve one representative per class.
	leadReports := make([]Report, len(classes))
	err = ForEachIndexed(len(classes), v.opts.Workers, func(ci int) error {
		lead := classes[ci].Members[0]
		r, err := v.solvePlan(plans[lead.Group][lead.Scenario])
		if err != nil {
			return err
		}
		leadReports[ci] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Distribute class results: representatives keep their own reports,
	// other members get translated copies (solving directly only if a
	// translation fails, which key equality rules out but is checked).
	perCheck := make([][]Report, len(groups))
	for gi := range groups {
		perCheck[gi] = make([]Report, len(scens))
	}
	var classed, shared int64
	for ci, cl := range classes {
		lead := cl.Members[0]
		leadPlan := plans[lead.Group][lead.Scenario]
		perCheck[lead.Group][lead.Scenario] = leadReports[ci]
		if leadPlan.classKey != nil {
			classed++
		}
		for _, m := range cl.Members[1:] {
			r, ok := translateReport(leadReports[ci], leadPlan, plans[m.Group][m.Scenario])
			if !ok {
				var err error
				if r, err = v.solvePlan(plans[m.Group][m.Scenario]); err != nil {
					return nil, err
				}
			} else {
				shared++
			}
			perCheck[m.Group][m.Scenario] = r
		}
	}
	v.mu.Lock()
	v.canonClasses += classed
	v.canonShared += shared
	v.mu.Unlock()

	var out []Report
	for gi, g := range groups {
		rs := perCheck[gi]
		out = append(out, rs...)
		// The representative is always Members[0] (symmetry.Groups builds
		// groups first-seen); skip it by position — invariants may be
		// uncomparable types (Traversal holds a slice), so interface
		// equality would panic.
		for _, m := range g.Members[1:] {
			for _, r := range rs {
				cp := r
				cp.Invariant = m
				cp.Reused = true
				cp.Duration = 0
				out = append(out, cp)
			}
		}
	}
	return out, nil
}

// ForEachIndexed runs f(0..n-1) across min(workers, n) goroutines
// (workers <= 0 means GOMAXPROCS; 1 is a plain loop). Items are handed out
// in index order and none after the first error, and the error returned is
// that of the lowest failing index, so it matches a one-worker run. Shared
// by VerifyAll's and VerifyInvariant's check pool and the incremental
// layer's re-verification pool.
func ForEachIndexed(n, workers int, f func(int) error) error {
	// A panic in f must surface as an error, not kill the process: in the
	// parallel path it fires on a pool goroutine where no caller-side
	// recover() can reach it. Long-lived consumers (incr.Session, vmnd)
	// rely on this containment to keep serving after a buggy solve.
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: panic in worker: %v\n%s", r, debug.Stack())
			}
		}()
		return f(i)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return err
			}
		}
		return nil
	}
	// Every item below a failing one was handed out before it and runs to
	// completion, so the lowest failing index is the one a plain loop hits.
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = call(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// keepSet lists the nodes an invariant pins into its slice: the nodes it
// references plus the owners of referenced addresses.
func (v *Verifier) keepSet(i inv.Invariant) []topo.NodeID {
	keep := append([]topo.NodeID(nil), i.Nodes()...)
	for _, a := range i.RefAddrs() {
		if n, ok := v.net.Topo.HostByAddr(a); ok {
			keep = append(keep, n.ID)
		}
	}
	return keep
}

func (v *Verifier) sliceFor(keep []topo.NodeID, engine *tf.Engine) (slices.Result, error) {
	if v.opts.NoSlices {
		return slices.Whole(v.net.Topo, v.net.Boxes), nil
	}
	return slices.Compute(slices.Input{
		Topo:        v.net.Topo,
		TF:          engine,
		Boxes:       v.net.Boxes,
		PolicyClass: v.net.PolicyClass,
		Keep:        keep,
	})
}

func (v *Verifier) verifyOn(i inv.Invariant, sc topo.FailureScenario, engine *tf.Engine) (Report, error) {
	plan, err := v.buildPlan(i, sc, engine)
	if err != nil {
		return Report{}, err
	}
	return v.solvePlan(plan)
}

// solvePlan dispatches one planned check to an engine and assembles its
// report.
func (v *Verifier) solvePlan(plan *checkPlan) (Report, error) {
	start := time.Now()
	res, engName, err := v.dispatch(plan)
	if err != nil {
		return Report{}, err
	}
	i, sl := plan.inv, plan.sl
	rep := Report{
		Invariant:  i,
		Scenario:   plan.sc,
		Result:     res,
		SliceHosts: len(sl.Hosts),
		SliceBoxes: len(sl.Boxes),
		Whole:      sl.Whole || v.opts.NoSlices,
		Engine:     engName,
		Duration:   time.Since(start),
		Slice:      sl,
	}
	switch res.Outcome {
	case inv.Holds:
		rep.Satisfied = i.Expectation()
	case inv.Violated:
		rep.Satisfied = !i.Expectation()
	default:
		// Unknown means some exploration budget ran out (solver conflict
		// cap, explicit-state bound) before a verdict.
		rep.Satisfied = false
		rep.BudgetExceeded = true
	}
	return rep, nil
}

func (v *Verifier) dispatch(plan *checkPlan) (inv.Result, string, error) {
	p := plan.prob
	encOpts := encode.Options{
		MaxConflicts:      v.opts.MaxConflicts,
		GroundAllReadKeys: v.opts.NoSlices,
		Journeys:          v.journeys,
	}
	expOpts := explore.Options{Workers: v.opts.Workers}
	switch v.opts.Engine {
	case EngineSAT:
		r, err := v.verifySAT(p, encOpts, plan)
		return r, "sat", err
	case EngineExplicit:
		r, err := explore.Verify(p, expOpts)
		return r, "explicit", err
	default:
		if encodable(p) {
			r, err := v.verifySAT(p, encOpts, plan)
			if err == nil {
				return r, "sat", nil
			}
		}
		r, err := explore.Verify(p, expOpts)
		return r, "explicit", err
	}
}

// encodable reports whether every middlebox in the problem fits the SAT
// engine's boolean-state encoding.
func encodable(p *inv.Problem) bool {
	for _, b := range p.Boxes {
		st := b.Model.InitState()
		keys, ok := mbox.SetStateKeys(st)
		if !ok {
			return false
		}
		if _, isReader := b.Model.(mbox.KeyReader); !isReader && len(keys) > 0 {
			return false
		}
		// Nondeterministic models (load balancers) are detected lazily by
		// the engine itself; the common case is caught here.
		if _, isLB := b.Model.(*mbox.LoadBalancer); isLB {
			return false
		}
	}
	return true
}

// maxSends picks the schedule bound: enough steps for the longest causal
// witness the invariant class needs (request, fill, probe, reply), plus
// the caller's override.
func (v *Verifier) maxSends(i inv.Invariant, sl slices.Result) int {
	if v.opts.MaxSends > 0 {
		return v.opts.MaxSends
	}
	hasCache := false
	for _, b := range sl.Boxes {
		if b.Model.Discipline() == mbox.OriginAgnostic {
			hasCache = true
		}
	}
	switch i.(type) {
	case inv.DataIsolation:
		return 4
	case inv.Traversal:
		return 2
	default:
		if hasCache {
			return 4
		}
		return 3
	}
}

// genSamples builds the finite packet alphabet for a problem: for every
// ordered pair of slice hosts an "initiate" and a "respond" flow, plus
// content request/response samples when the invariant or slice involves
// caches. In whole-network mode (sl.Whole) only pairs touching the keep
// set are generated — other pairs cannot influence the invariant, but the
// whole network's middlebox axioms are still grounded by the engine.
func (v *Verifier) genSamples(i inv.Invariant, sl slices.Result, keep []topo.NodeID) []inv.Sample {
	var out []inv.Sample
	seen := map[pkt.Header]bool{}
	add := func(sender topo.NodeID, h pkt.Header) {
		if !seen[h] {
			seen[h] = true
			out = append(out, inv.Sample{Sender: sender, Hdr: h})
		}
	}
	keepSet := map[topo.NodeID]bool{}
	for _, k := range keep {
		keepSet[k] = true
	}
	hosts := sl.Hosts
	for _, a := range hosts {
		na := v.net.Topo.Node(a)
		for _, b := range hosts {
			if a == b {
				continue
			}
			if sl.Whole && !keepSet[a] && !keepSet[b] {
				continue
			}
			nb := v.net.Topo.Node(b)
			add(a, pkt.Header{Src: na.Addr, Dst: nb.Addr, SrcPort: 1000, DstPort: 80, Proto: pkt.TCP})
			add(a, pkt.Header{Src: na.Addr, Dst: nb.Addr, SrcPort: 80, DstPort: 1000, Proto: pkt.TCP})
		}
	}
	// Content traffic for data-isolation checks and cache-bearing slices.
	origin := pkt.AddrNone
	if di, ok := i.(inv.DataIsolation); ok {
		origin = di.Origin
	} else {
		for _, b := range sl.Boxes {
			if _, isCache := b.Model.(*mbox.ContentCache); isCache {
				// Default content origin: the first slice host that is not
				// the invariant destination.
				for _, h := range hosts {
					if len(i.Nodes()) > 0 && h == i.Nodes()[0] {
						continue
					}
					origin = v.net.Topo.Node(h).Addr
					break
				}
			}
		}
	}
	if origin != pkt.AddrNone {
		if srv, ok := v.net.Topo.HostByAddr(origin); ok {
			const cid = 1
			for _, h := range hosts {
				if h == srv.ID {
					continue
				}
				nh := v.net.Topo.Node(h)
				add(h, pkt.Header{Src: nh.Addr, Dst: origin, SrcPort: 1000, DstPort: 80, Proto: pkt.TCP, ContentID: cid})
				add(srv.ID, pkt.Header{Src: origin, Dst: nh.Addr, SrcPort: 80, DstPort: 1000, Proto: pkt.TCP, Origin: origin, ContentID: cid})
			}
		}
	}
	return out
}
