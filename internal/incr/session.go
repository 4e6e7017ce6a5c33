package incr

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/fnv64"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/lru"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/symmetry"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Options tune a Session.
type Options struct {
	// NoSymmetry disables §4.2 grouping: every invariant is its own
	// group. With symmetry on (default), a dirtied representative re-runs
	// once for its whole group.
	NoSymmetry bool
	// RequestTimeout bounds the wall clock of one request (Apply or
	// Propose, including repair search). Checks not started before the
	// deadline degrade to an explicit BudgetExceeded/Unknown report
	// instead of hanging the daemon; exceeded groups stay dirty and
	// re-verify on the next request. 0 disables the deadline.
	RequestTimeout time.Duration
	// FaultHook, when non-nil, is called at the entry of every group
	// solve ("solve" stage) on the worker that runs it. Test-only fault
	// injection: a hook that panics exercises the containment path (worker
	// recover → the run's error, its writes undone) without a real solver
	// bug.
	FaultHook func(stage string)
	// Obs, when non-nil, receives phase spans (dirty → atom-prescreen →
	// canonicalize → per-class solve → cache-install, per Apply/Propose)
	// and metric registrations from the session, and is forwarded to the
	// underlying core.Verifier for encode/solve spans and cache gauges.
	// Nil disables all instrumentation at the cost of a pointer check per
	// site.
	Obs *obs.Obs
	// SlowSolve, when > 0, logs every fresh group solve whose wall clock
	// meets the threshold as one structured NDJSON line (canonical class
	// key, group size, solver stats) on SlowSolveWriter.
	SlowSolve time.Duration
	// SlowSolveWriter overrides the slow-solve log destination
	// (default os.Stderr).
	SlowSolveWriter io.Writer
	// Persist, when non-nil, makes the session durable: acked applies
	// append to a crash-safe journal under Persist.Dir, state + verdict
	// store snapshot periodically, and NewSession recovers a previous
	// session's state from the directory (persist.go).
	Persist *PersistOptions
}

// ApplyStats describes one Apply call.
type ApplyStats struct {
	Seq             int
	Changes         int
	Groups          int
	Invariants      int
	DirtyGroups     int
	DirtyInvariants int
	// DirtyClasses counts the canonical equivalence classes among the
	// dirty groups: only one representative per class is re-verified, the
	// rest inherit translated verdicts (CanonShared counts those
	// inherited (invariant, scenario) reports).
	DirtyClasses int
	CanonShared  int
	// RefinedClean counts groups element-level dirtying would have
	// re-verified (their footprint contains a changed element) but whose
	// prefix/rule-level read-set proved untouched — the work the refined
	// dependency index saves on this Apply.
	RefinedClean int
	// TablesCompiled counts the forwarding tables this Apply sorted and
	// hashed: 0 when no table's rules changed, whatever else did.
	TablesCompiled int
	CacheHits      int
	CacheMisses    int
	// CanonHits is the subset of CacheHits answered through canonical
	// class keys — including hits where the cached verdict came from a
	// differently named but isomorphic slice and the witness was
	// translated.
	CanonHits int
	// BudgetExceeded counts reports that hit a budget (request deadline,
	// solver conflict cap) instead of reaching a verdict.
	BudgetExceeded int
	// Enqueued is the raw change count an ApplyBatch was handed before
	// coalescing (0 for a plain Apply); Coalesced counts the changes
	// coalescing eliminated — Changes is what remained and was applied.
	Enqueued  int
	Coalesced int
	Duration  time.Duration
}

// Totals accumulates session-lifetime counters.
type Totals struct {
	Applies      int `json:"applies"`
	Solves       int `json:"solves"`              // (invariant, scenario) checks actually run
	CacheHits    int `json:"cache_hits"`          // checks answered from the verdict cache
	CanonHits    int `json:"canon_hits"`          // cache hits served through canonical class keys
	CanonShared  int `json:"canon_shared"`        // reports inherited from a dirty-class representative
	Classes      int `json:"classes"`             // canonical classes formed among dirty groups
	RefinedClean int `json:"refined_clean"`       // groups kept clean by prefix/rule-level refinement
	DirtyInvs    int `json:"dirty_invariants"`    // invariants dirtied across all applies
	TotalInvs    int `json:"total_invariants"`    // invariant count summed across all applies
	ReusedInvs   int `json:"reused_invariants"`   // invariant reports inherited via symmetry
	Batches      int `json:"batches,omitempty"`   // ApplyBatch calls
	Enqueued     int `json:"enqueued,omitempty"`  // raw changes handed to ApplyBatch before coalescing
	Coalesced    int `json:"coalesced,omitempty"` // changes eliminated by batch coalescing
}

// groupEntry is the session's memory of one symmetry group: the
// representative's reports (one per effective scenario, position-aligned
// with the configured scenario list) and the union dependency read-set of
// its slices — the sorted node footprint (liveness/membership dirtying),
// the per-node forwarding read atoms and the per-box rule-read
// projections (prefix/rule-level dirtying), and the slice address
// universe the projections were taken against. coarse marks entries
// without refined reads (whole-network slices): any change at a footprint
// node dirties them.
type groupEntry struct {
	reports  []core.Report
	touched  []topo.NodeID
	fib      map[topo.NodeID]topo.AtomSet
	boxKeys  map[topo.NodeID]string
	universe topo.AtomSet
	coarse   bool
	// exceeded marks entries holding at least one budget-degraded
	// (Unknown) report: they are unconditionally dirty on the next Apply
	// so the check re-runs once budget allows.
	exceeded bool
}

// Session is a long-lived incremental verifier. It owns the network it was
// created over and every model and rule list handed to it: the caller
// changes the network only through Changes, each carrying its new value,
// and never mutates what it has handed over. Sessions are safe for
// concurrent Apply calls (they serialize).
type Session struct {
	mu sync.Mutex

	net   *core.Network
	opts  core.Options
	sopts Options

	// sessState is the scalars a change-set moves, as one value (txn.go):
	// what a run saves and a failed one reinstalls, and a Commit installs.
	sessState
	// invs, byNode, down and table are containers a change-set edits in
	// place, as it does the network's boxes, policy classes and FIB
	// provider: only through set and setEntry, which record each
	// write on trail while a run arms one (txn.go). invs is the invariant
	// list, each with its signature and group key. byNode indexes it by the
	// nodes each invariant names, itself or through an address the node
	// owns: the invariants a relabel of the node can re-sign. Arrivals and
	// departures edit it copy-on-write; a needFull regroup rebuilds it.
	// table is the symmetry partition of invs and what is known about each
	// group (table.go).
	invs   []*member
	byNode map[topo.NodeID][]*member
	down   map[topo.NodeID]bool
	table  *groupTable
	trail  *trail
	// spare is the trail's buffer, reused from one live run to the next.
	spare trail
	// needFull marks a run from the empty table: it regroups and verifies
	// everything, and arms no trail (NewSession's first run, and the cold
	// restart finishRecovery runs inside it).
	needFull bool

	// verifier lives as long as the session: all its caches (interned
	// engines, SAT journey memoization, slice encodings) are keyed by
	// content, so they stay valid across network mutations — journey
	// enumerations and warm engines survive across Applies, which is where
	// the incremental path's repeated same-slice solves cash in. The
	// session does not ask it to compile forwarding state: it patches the
	// tables of the engines it holds (engs) and interns the result.
	verifier *core.Verifier

	// cache is the verdict cache, for Apply and Propose alike (txn.go).
	cmu   sync.Mutex
	cache *lru.Cache[string, cacheLine]

	// deadline bounds the in-flight request (zero = none); set at the
	// top of Apply/Propose from Options.RequestTimeout.
	deadline time.Time

	// pending is the proposed-but-not-decided transaction, nil outside a
	// Propose/Commit|Rollback window.
	pending *pendingTx

	// store is the durability layer (nil when Options.Persist is nil):
	// every acked apply journals through it and snapshots compact the
	// journal (persist.go). appliedIDs dedups client request ids for
	// at-least-once wire replay, oldest forgotten first; recovery
	// describes what startup restored.
	store      *sessStore
	appliedIDs *lru.Cache[string, []byte]
	recovery   RecoveryStats

	// metrics caches the session's registered metric handles (nil when
	// Options.Obs carries no registry — the disabled mode).
	metrics *sessMetrics
	// classified counts the records markDirty has run classify on (tests
	// pin "a zero-dirty Apply examines no group" with it); signed the
	// signatures regroup computed, and rewritten the group records it
	// rebuilt or created (tests pin that a relabel costs the invariants it
	// names with them).
	classified, signed, rewritten int
	// slowMu serializes slow-solve log lines across pool workers.
	slowMu sync.Mutex
}

// sessMetrics holds the session's pre-registered metric handles so the
// apply hot path never takes the registry lock.
type sessMetrics struct {
	applies, solves, cacheHits, canonHits, canonShared *obs.Counter
	refinedClean, budgetExceeded, dirtyGroups          *obs.Counter
	workerBusyNs                                       *obs.Counter
	changes, batches, enqueued, coalesced              *obs.Counter
	groups, invariants                                 *obs.Gauge
	applySeconds, solveSeconds                         *obs.Histogram
	dirtyFraction, classSize, batchSize                *obs.Histogram
}

func newSessMetrics(r *obs.Registry) *sessMetrics {
	return &sessMetrics{
		applies:        r.Counter("vmn_incr_applies_total"),
		solves:         r.Counter("vmn_incr_solves_total"),
		cacheHits:      r.Counter("vmn_incr_cache_hits_total"),
		canonHits:      r.Counter("vmn_incr_canon_hits_total"),
		canonShared:    r.Counter("vmn_incr_canon_shared_total"),
		refinedClean:   r.Counter("vmn_incr_refined_clean_total"),
		budgetExceeded: r.Counter("vmn_incr_budget_exceeded_total"),
		dirtyGroups:    r.Counter("vmn_incr_dirty_groups_total"),
		workerBusyNs:   r.Counter("vmn_incr_worker_busy_ns_total"),
		// Streaming-pipeline accounting: changes counts every change the
		// session absorbed (rate() over it is sustained updates/sec);
		// enqueued/coalesced expose the batch coalescing ratio.
		changes:       r.Counter("vmn_incr_changes_total"),
		batches:       r.Counter("vmn_incr_batches_total"),
		enqueued:      r.Counter("vmn_incr_batch_enqueued_total"),
		coalesced:     r.Counter("vmn_incr_batch_coalesced_total"),
		groups:        r.Gauge("vmn_incr_groups"),
		invariants:    r.Gauge("vmn_incr_invariants"),
		applySeconds:  r.Histogram("vmn_incr_apply_seconds", obs.LatencyBuckets),
		solveSeconds:  r.Histogram("vmn_incr_solve_seconds", obs.LatencyBuckets),
		dirtyFraction: r.Histogram("vmn_incr_dirty_fraction", obs.FractionBuckets),
		classSize:     r.Histogram("vmn_incr_class_size", obs.SizeBuckets),
		batchSize:     r.Histogram("vmn_incr_batch_size", obs.SizeBuckets),
	}
}

// NewSession builds a session and runs the initial full verification,
// returning its reports (ordered exactly as core.VerifyAll orders them).
func NewSession(net *core.Network, opts core.Options, invs []inv.Invariant, sopts Options) (*Session, []core.Report, error) {
	if opts.Obs == nil {
		// One handle observes the whole pipeline: forward the session's to
		// the verifier so encode/solve spans and cache gauges land in the
		// same tracer and registry.
		opts.Obs = sopts.Obs
	}
	v, err := core.NewVerifier(net, opts)
	if err != nil {
		return nil, nil, err
	}
	s := &Session{
		net:        net,
		opts:       opts,
		sopts:      sopts,
		sessState:  sessState{nextOrd: uint64(len(invs))},
		invs:       make([]*member, len(invs)),
		table:      newGroupTable(),
		byNode:     map[topo.NodeID][]*member{}, // built by the first regroup
		down:       map[topo.NodeID]bool{},
		verifier:   v,
		cache:      newVerdictCache(),
		appliedIDs: newAppliedIDs(),
	}
	members := make([]member, len(invs))
	for ii, i := range invs {
		members[ii] = member{inv: i, ord: uint64(ii)}
		s.invs[ii] = &members[ii]
	}
	if sopts.Persist != nil {
		// Open the store and restore any previous session's state
		// BEFORE the initial verification: the Apply below then plans
		// the recovered network and serves restored verdicts from the
		// pre-populated cache. Damaged or mismatched state degrades to
		// an explicit cold start inside openStore (never a partial
		// restore); only setup failures (unwritable directory) abort.
		if err := s.openStore(); err != nil {
			return nil, nil, err
		}
	}
	if sopts.Obs != nil && sopts.Obs.Metrics != nil {
		s.metrics = newSessMetrics(sopts.Obs.Metrics)
		// Derived, zero-hot-path: computed from the totals at scrape time.
		sopts.Obs.Metrics.RegisterFunc("vmn_incr_coalesce_ratio", func() float64 {
			t := s.TotalStats()
			if t.Enqueued == 0 {
				return 0
			}
			return float64(t.Coalesced) / float64(t.Enqueued)
		})
		// Size gauges for the structures that only grow with the change
		// stream; walked at scrape time, never on the apply path.
		sopts.Obs.Metrics.RegisterFunc("vmn_incr_posting_entries", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.table.postings())
		})
		sopts.Obs.Metrics.RegisterFunc("vmn_incr_applied_ids", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.appliedIDs.Len())
		})
		sopts.Obs.Metrics.RegisterFunc("vmn_incr_verdict_cache_entries", func() float64 {
			s.cmu.Lock()
			defer s.cmu.Unlock()
			return float64(s.cache.Len())
		})
	}
	// A failed first run discards the session: it has no state to go back
	// to, so it arms no trail.
	s.needFull = true
	reports, err := s.Apply(nil)
	if err != nil {
		return nil, nil, err
	}
	if s.recovery.Recovered {
		// Count restored groups and re-verify a sample against fresh
		// solves before trusting the store; a mismatch drops the
		// restored cache and re-verifies cold.
		reports, err = s.finishRecovery(reports)
		if err != nil {
			return nil, nil, err
		}
	}
	if s.store != nil {
		// Make the just-verified state durable immediately: a crash
		// before the first change (or after recovery replayed a long
		// journal suffix) still warm-restarts from a fresh snapshot.
		s.mu.Lock()
		s.snapshotLocked()
		s.mu.Unlock()
	}
	return s, reports, nil
}

// Network returns the session's network (for constructing changes; do not
// mutate outside the Change protocol).
func (s *Session) Network() *core.Network { return s.net }

// Invariants returns the current invariant set (copy).
func (s *Session) Invariants() []inv.Invariant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]inv.Invariant, len(s.invs))
	for ii, m := range s.invs {
		out[ii] = m.inv
	}
	return out
}

// EffectiveScenarios returns the failure scenarios currently verified
// under: every configured scenario unioned with the nodes taken down via
// NodeDown changes.
func (s *Session) EffectiveScenarios() []topo.FailureScenario {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]topo.FailureScenario(nil), s.effectiveScenarios()...)
}

// noFailures is the scenario list of a session configured with none.
var noFailures = []topo.FailureScenario{topo.NoFailures()}

// effectiveScenarios is EffectiveScenarios without the copy: with no node
// down it is the configured list itself, which no caller writes.
func (s *Session) effectiveScenarios() []topo.FailureScenario {
	base := s.opts.Scenarios
	if len(base) == 0 {
		base = noFailures
	}
	if len(s.down) == 0 {
		return base
	}
	out := make([]topo.FailureScenario, len(base))
	for i, sc := range base {
		nodes := sc.Nodes()
		for n := range s.down {
			if !sc.Failed(n) {
				nodes = append(nodes, n)
			}
		}
		out[i] = topo.Failures(nodes...)
	}
	return out
}

// LastApply returns statistics for the most recent Apply.
func (s *Session) LastApply() ApplyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// TotalStats returns session-lifetime counters.
func (s *Session) TotalStats() Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// hasOriginAgnosticBox reports whether any middlebox in the network is
// origin-agnostic — the network-global flag that makes slice computation
// depend on the policy-class map (§4.1 representatives), and hence makes
// relabels able to move slice membership.
func (s *Session) hasOriginAgnosticBox() bool {
	for _, b := range s.net.Boxes {
		if b.Model.Discipline() == mbox.OriginAgnostic {
			return true
		}
	}
	return false
}

// relabelImpact scopes the dirtying a policy relabel of node n to class
// newClass needs. It must run against the class map as it stands BEFORE
// the relabel is installed.
//
// Without origin-agnostic boxes slices ignore the class map entirely, so
// dirtying n's own footprint (the historical behaviour) is already sound
// and tight. With an origin-agnostic box, every slice embeds one
// representative host per policy class — the globally minimum-ID edge
// node of each class not already covered by the slice's own hosts — so a
// relabel can move slice membership. Case analysis over the old class's
// and the new class's OTHER members (memA, memB; edge nodes only, since
// only hosts/externals participate in representative selection):
//
//   - old class == new class: nothing can move; no dirtying at all.
//   - memA and memB both empty (a pure rename of a class only n
//     carries): representative selection is invariant under renaming a
//     label no other node has, so NO slice changes. Dirty nothing — the
//     symmetry regrouping still re-verifies invariants whose signatures
//     mention the class, through the content-keyed caches.
//   - memB empty, memA non-empty (n leaves for a brand-new class while
//     the old one survives): n becomes a mandatory new representative in
//     every origin-agnostic slice that does not already contain it —
//     invisible to stale footprints, so dirty everything.
//   - memB non-empty: every slice whose membership changes contained, in
//     its pre-change form, either n itself (closure member or displaced
//     old-class representative) or the new class's previous
//     representative min(memB) (displaced when n's ID is smaller). Those
//     two witnesses route the dirtying through the ordinary node channel.
//
// Non-edge relabels (switches or middleboxes) cannot move representative
// selection; their footprint dirtying is kept for symmetry-signature
// conservatism.
func (s *Session) relabelImpact(n topo.NodeID, newClass string) (full bool, witnesses []topo.NodeID) {
	if !s.hasOriginAgnosticBox() {
		return false, []topo.NodeID{n}
	}
	node := s.net.Topo.Node(n)
	if node.Kind != topo.Host && node.Kind != topo.External {
		return false, []topo.NodeID{n}
	}
	oldC := slices.ClassOf(s.net.PolicyClass, n)
	newC := newClass
	if newC == "" {
		newC = slices.ClassOf(nil, n)
	}
	if oldC == newC {
		return false, nil
	}
	memA := false // old class has other edge members
	minB := topo.NodeNone
	for _, other := range s.net.Topo.Nodes() {
		if other.ID == n || (other.Kind != topo.Host && other.Kind != topo.External) {
			continue
		}
		switch slices.ClassOf(s.net.PolicyClass, other.ID) {
		case oldC:
			memA = true
		case newC:
			if minB == topo.NodeNone || other.ID < minB {
				minB = other.ID
			}
		}
	}
	if minB == topo.NodeNone {
		if memA {
			return true, nil
		}
		return false, nil
	}
	witnesses = []topo.NodeID{n}
	if n < minB {
		witnesses = append(witnesses, minB)
	}
	return false, witnesses
}

func (s *Session) validNode(n topo.NodeID) error {
	if n < 0 || int(n) >= s.net.Topo.NumNodes() {
		return fmt.Errorf("incr: unknown node id %d", n)
	}
	return nil
}

// Apply atomically applies a change-set, re-verifies exactly the
// invariants the changes can affect, and returns a complete report set
// for the current invariant set — byte-for-byte the verdicts a fresh
// core.VerifyAll over the mutated network would produce, in the same
// order. An empty change-set is a cheap refresh (no re-verification).
// A change-set that cannot apply (an unknown node, a box that is not
// there) is refused whole, and one that fails later in the pipeline (a
// solver error, or a panic it contains) is undone whole: either way the
// session is left as it was, and nothing is journaled. While a Propose is
// pending, Apply fails with ErrProposePending (decide the transaction
// first).
func (s *Session) Apply(changes []Change) ([]core.Report, error) {
	reports, _, err := s.ApplyID("", changes)
	return reports, err
}

// ApplyID is Apply carrying a client request id for at-least-once
// delivery: if id was already applied (in this process or in a
// recovered predecessor), the change-set is NOT re-applied and the
// current report set returns with duplicate=true. With persistence
// enabled the change-set is journaled before the call returns, so an
// acked change survives a crash. Empty ids are never deduplicated. A
// duplicate applies nothing, so a pending Propose does not refuse it.
func (s *Session) ApplyID(id string, changes []Change) (_ []core.Report, duplicate bool, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reportsAfter(s.applyRequest(id, changes, false))
}

// AppendApply is the daemon's apply call: ApplyID (ApplyBatchID when
// batch) and AppendResult's line for its outcome, under one lock. It
// assembles no report set: the line is spliced from the group table.
func (s *Session) AppendApply(buf []byte, id string, changes []Change, batch bool) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	duplicate, err := s.applyRequest(id, changes, batch)
	if err != nil {
		return buf, err
	}
	return s.appendResult(buf, id, duplicate), nil
}

// applyRequest is what ApplyID, ApplyBatchID and AppendApply share, under
// s.mu: a replayed id is acked with the current state, a pending Propose
// refuses the change-set, anything else is applied as one transaction
// (coalesced first when batch) and journaled.
func (s *Session) applyRequest(id string, changes []Change, batch bool) (duplicate bool, err error) {
	if s.replayed(id) {
		return true, nil
	}
	if s.pending != nil {
		return false, ErrProposePending
	}
	s.armDeadline()
	if batch {
		return false, s.applyBatchLocked(id, changes)
	}
	if _, err := s.transact(false, func() error { return s.applyLocked(changes) }); err != nil {
		return false, err
	}
	s.persistApply(id, changes)
	return false, nil
}

// reportsAfter assembles the current report set after a request that
// succeeded: the library's entry points return it, the daemon's do not.
func (s *Session) reportsAfter(duplicate bool, err error) ([]core.Report, bool, error) {
	if err != nil {
		return nil, false, err
	}
	return s.assemble(s.effectiveScenarios()), duplicate, nil
}

// armDeadline starts the per-request wall clock (zero deadline = none).
func (s *Session) armDeadline() {
	if s.sopts.RequestTimeout > 0 {
		s.deadline = time.Now().Add(s.sopts.RequestTimeout)
	} else {
		s.deadline = time.Time{}
	}
}

// expired reports whether the in-flight request passed its deadline.
func (s *Session) expired() bool {
	return !s.deadline.IsZero() && !time.Now().Before(s.deadline)
}

// applyLocked is the apply pipeline, for a live Apply and a shadow
// (Propose) alike, run under s.mu by transact, which undoes it when it
// fails: it runs against whatever state is currently installed in s, and
// ends when the group table holds the new verdicts — it assembles no
// report set.
func (s *Session) applyLocked(changes []Change) error {
	if err := s.validate(changes); err != nil {
		return err // refused before anything moved
	}
	start := time.Now()
	s.seq++

	root := s.sopts.Obs.Span("apply")
	defer root.End()

	// Phase 1: mutate the network and collect affected elements.
	im := newImpact()
	full, pd := s.mutate(changes, im)
	dirtyAll := full || s.needFull

	// Phase 2: bring the held engines up to date and put the tables that
	// changed on the fib channel. Liveness toggles themselves dirty via
	// the footprints (Consulted records every liveness read); what reaches
	// the fib channel there is the scenario-dependence of FIBFor, whose
	// tables may change wholesale when the effective scenario changes.
	scens := s.effectiveScenarios()
	fwd := s.syncEngines(changes, scens)
	s.engs = fwd.engs
	im.addTableDeltas(fwd.deltas, changes)

	// Phase 3: regroup if the partition's inputs moved, and decide what is
	// dirty.
	dirtySpan := root.Child("dirty")
	t := s.table
	if s.needFull || len(pd.relabeled)+len(pd.added)+len(pd.removed) > 0 {
		s.regroup(&pd)
	}
	dirty, causes, refinedClean := s.markDirty(dirtySpan, im, dirtyAll)
	if dirtySpan.Enabled() {
		dirtySpan = dirtySpan.Label(fmt.Sprintf("groups=%d dirty=%d refined_clean=%d", len(t.order), len(dirty), refinedClean))
	}
	dirtySpan.End()

	stats := ApplyStats{
		Seq:            s.seq,
		Changes:        len(changes),
		Groups:         len(t.order),
		Invariants:     len(s.invs),
		DirtyGroups:    len(dirty),
		RefinedClean:   refinedClean,
		TablesCompiled: fwd.compiled,
	}
	for _, sl := range dirty {
		stats.DirtyInvariants += len(t.recs[sl].members)
	}

	// Phase 4: re-verify dirty groups.
	entries, origins, err := s.reverify(root, dirty, scens, &stats)
	if err != nil {
		return err
	}

	// Phase 5: install the fresh entries — only re-verified groups move
	// their postings. A budget-degraded verdict re-verifies on every Apply,
	// so the report set's are all among the fresh ones, one per member.
	installSpan := root.Child("cache-install")
	for di, sl := range dirty {
		t.install(s.trail, sl, entries[di])
		for _, r := range entries[di].reports {
			if r.BudgetExceeded {
				stats.BudgetExceeded += len(t.recs[sl].members)
			}
		}
	}
	s.needFull = false
	installSpan.End()

	// Provenance: one record per re-verified group, naming the dirtying
	// change (rendered lazily — only dirty groups pay) and how each
	// verdict was obtained.
	recs := make([]ExplainRecord, 0, len(dirty))
	for di, sl := range dirty {
		c := causes[di]
		if c.Change >= 0 && c.Change < len(changes) {
			c.ChangeDesc = describeChange(s.net.Topo, changes[c.Change])
		} else {
			c.Change = -1
		}
		members := make([]string, 0, len(t.recs[sl].members))
		for _, m := range t.recs[sl].members {
			members = append(members, m.inv.Name())
		}
		recs = append(recs, ExplainRecord{
			Seq: s.seq, GroupKey: t.recs[sl].key, Members: members,
			Cause: c, Checks: origins[di],
		})
	}
	s.lastExplain = recs

	stats.Duration = time.Since(start)
	s.account(stats, (len(s.invs)-len(t.order))*len(scens))
	return nil
}

// validate checks every precondition mutate relies on, each against the
// state the changes before it in the set will have produced (which boxes
// exist is the only one a change can move). A change-set that cannot apply
// is therefore refused whole, before anything is installed.
func (s *Session) validate(changes []Change) error {
	// present overrides findBox for the nodes this set has bound or unbound.
	present := map[topo.NodeID]bool{}
	hasBox := func(n topo.NodeID) bool {
		if p, ok := present[n]; ok {
			return p
		}
		return findBox(s.net, n) >= 0
	}
	for _, ch := range changes {
		switch ch.Kind {
		case KindInvRemove:
			continue
		case KindFIB:
			if ch.FIBFor == nil {
				return fmt.Errorf("incr: fib update needs a provider")
			}
			continue
		case KindInvAdd:
			if ch.Invariant == nil {
				return fmt.Errorf("incr: inv-add needs an invariant")
			}
			continue
		case KindNodeDown, KindNodeUp, KindRelabel, KindBoxRemove, KindBoxReconfig:
			if err := s.validNode(ch.Node); err != nil {
				return err
			}
		default:
			return fmt.Errorf("incr: unknown change kind %d", ch.Kind)
		}
		nd := s.net.Topo.Node(ch.Node)
		switch ch.Kind {
		case KindBoxReconfig:
			if ch.Model == nil {
				return fmt.Errorf("incr: %s at %s needs a model", ch.Kind, nd.Name)
			}
			if nd.Kind != topo.Middlebox {
				return fmt.Errorf("incr: node %q is not a middlebox", nd.Name)
			}
			present[ch.Node] = true
		case KindBoxRemove:
			if !hasBox(ch.Node) {
				return fmt.Errorf("incr: no middlebox model at %q", nd.Name)
			}
			present[ch.Node] = false
		}
	}
	return nil
}

// mutate is Apply's phase 1, and the only place a change is installed —
// for a live Apply, a shadow run and journal recovery alike. It installs
// every change into the network and the session's liveness and invariant
// sets, and records the affected elements in im, each attributed to the
// change index that put it on its channel (provenance for explain). full
// reports a change stale footprints cannot scope, so everything is dirty;
// pd what moved an input of the symmetry partition (the invariant list or
// the policy classes). The set must have passed validate: nothing here can
// fail. The store notes what the configuration had before a node's first
// change.
func (s *Session) mutate(changes []Change, im *impact) (full bool, pd partitionDelta) {
	for ci, ch := range changes {
		if s.store != nil {
			s.store.note(s.net, ch)
		}
		switch ch.Kind {
		case KindNodeDown, KindNodeUp:
			if down := ch.Kind == KindNodeDown; down != s.down[ch.Node] {
				setEntry(s.trail, s.down, ch.Node, down, down)
				s.scenGen++
				im.addNode(ch.Node, ci)
			}
		case KindFIB:
			set(s.trail, &s.net.FIBFor, ch.FIBFor)
		case KindBoxRemove:
			bi := findBox(s.net, ch.Node)
			if s.net.Boxes[bi].Model.Discipline() == mbox.OriginAgnostic {
				// Losing the last origin-agnostic box shrinks every slice.
				full = true
			}
			set(s.trail, &s.net.Boxes, append(s.net.Boxes[:bi:bi], s.net.Boxes[bi+1:]...))
			im.addNode(ch.Node, ci)
		case KindBoxReconfig:
			// An unbound node counts as a flow-parallel box: binding a
			// model there is then judged by the same rule as replacing one.
			bi := findBox(s.net, ch.Node)
			oldD := mbox.FlowParallel
			if bi >= 0 {
				oldD = s.net.Boxes[bi].Model.Discipline()
			}
			newD := ch.Model.Discipline()
			if oldD != newD && (oldD == mbox.OriginAgnostic || newD == mbox.OriginAgnostic || newD == mbox.General) {
				// An origin-agnostic box gained or lost changes the
				// class-representative rule of every slice; a General box
				// widens every slice to the whole network. Neither is
				// visible in stale footprints, so dirty everything.
				full = true
			}
			if bi >= 0 {
				set(s.trail, &s.net.Boxes[bi].Model, ch.Model)
				// A rebind flows through the refined channel: groups whose
				// rule-read projection of this box is unchanged stay clean
				// (classify falls back to node granularity when no
				// projection was stored).
				im.addBox(ch.Node, ci)
			} else {
				// A first bind goes last in the box list and on the node
				// channel: no stored projection knows the node as a box.
				n := len(s.net.Boxes)
				set(s.trail, &s.net.Boxes, append(s.net.Boxes[:n:n], mbox.Instance{Node: ch.Node, Model: ch.Model}))
				im.addNode(ch.Node, ci)
			}
		case KindRelabel:
			if s.net.PolicyClass == nil {
				set(s.trail, &s.net.PolicyClass, map[topo.NodeID]string{})
			}
			// Impact must be assessed against the class map as it stands
			// before this relabel lands (the old class's surviving members
			// decide who the displaced representatives are).
			relabelFull, witnesses := s.relabelImpact(ch.Node, ch.Class)
			setEntry(s.trail, s.net.PolicyClass, ch.Node, ch.Class, ch.Class != "")
			full = full || relabelFull
			pd.relabeled = append(pd.relabeled, ch.Node)
			for _, w := range witnesses {
				im.addNode(w, ci)
			}
		case KindInvAdd:
			n, m := len(s.invs), &member{inv: ch.Invariant, ord: s.nextOrd}
			s.nextOrd++
			set(s.trail, &s.invs, append(s.invs[:n:n], m))
			s.index(m, false)
			pd.added = append(pd.added, m)
		case KindInvRemove:
			kept := make([]*member, 0, len(s.invs))
			for _, m := range s.invs {
				if m.inv.Name() != ch.Name {
					kept = append(kept, m)
				} else {
					pd.remove(m)
					s.index(m, true)
				}
			}
			set(s.trail, &s.invs, kept)
		}
	}
	return full, pd
}

// fwdSync is what bringing the session's engines up to date with a
// change-set produced: the engines to hold from here on (one per
// effective scenario), per scenario the tables that differ from the ones
// held before, and how many tables were compiled to get there.
type fwdSync struct {
	engs     []*tf.Engine
	deltas   [][]tf.TableDelta
	compiled int
}

// syncEngines is Apply's phase 2. The engines held from the previous
// Apply carry the compiled forwarding state, so the work here follows
// the change, not the network: a change-set that names no forwarding or
// liveness change touches nothing; otherwise each scenario's FIB is
// patched against the tables held for it — one comparison per owner,
// identical slices first — and only the differing tables are compiled. A
// liveness toggle whose FIB does not depend on the scenario therefore
// compiles nothing and yields a new view over the same tables. With no
// engines held (the first Apply) everything is compiled,
// each scenario patched from the one before it so that scenarios with
// equal tables share them.
func (s *Session) syncEngines(changes []Change, scens []topo.FailureScenario) fwdSync {
	moved := false
	for _, ch := range changes {
		if ch.Kind == KindFIB || ch.Kind == KindNodeDown || ch.Kind == KindNodeUp {
			moved = true
		}
	}
	held := len(s.engs) == len(scens)
	if held && !moved {
		return fwdSync{engs: s.engs}
	}
	out := fwdSync{engs: make([]*tf.Engine, len(scens))}
	base := tf.NewTables(s.net.Topo)
	for i, sc := range scens {
		if held {
			base = s.engs[i].Tables()
		}
		tabs, deltas, n := base.Patch(s.net.FIBFor(sc))
		out.engs[i] = s.verifier.EngineOn(tabs, sc)
		out.compiled += n
		if held {
			out.deltas = append(out.deltas, deltas)
		}
		base = tabs
	}
	return out
}

// markDirty is Apply's phase 3: it decides which groups (as slots, in
// report order) must re-verify, with a cause per dirty group
// (position-aligned with dirty). The table first resolves the change-set
// to its candidate groups wholesale — one posting-list lookup per changed
// element, each group under a changed table screened by its reads there —
// so only candidates pay for classify's precision checks, and only they
// and the unsettled groups are visited at all; every other group is clean
// or refined-clean by construction, with counts identical to a full
// per-group scan.
func (s *Session) markDirty(dirtySpan obs.Span, im *impact, dirtyAll bool) (dirty []slot, causes []DirtyCause, refinedClean int) {
	t := s.table
	var candidates []slot
	if !dirtyAll {
		candidates, refinedClean = t.resolve(im)
	}
	prescreen := dirtySpan.Child("atom-prescreen")
	defer prescreen.End()
	if dirtyAll {
		for range t.order {
			causes = append(causes, DirtyCause{Reason: CauseFull, Change: -1})
		}
		return t.order, causes, 0
	}
	for _, sl := range t.inReportOrder(t.unsettled, candidates) {
		cause := DirtyCause{Reason: CauseNewGroup, Change: -1}
		if e := t.recs[sl].entry; e != nil && e.exceeded {
			// Entries holding budget-degraded verdicts re-run
			// unconditionally: the Unknown was a budget artifact, not a
			// property of the network.
			cause.Reason = CauseBudgetRetry
		} else if e != nil {
			s.classified++
			var verdict groupVerdict
			verdict, cause = im.classify(e, s.ruleReadKey)
			if verdict == groupRefinedClean {
				refinedClean++
			}
			if verdict != groupDirty {
				continue
			}
		}
		dirty = append(dirty, sl)
		causes = append(causes, cause)
	}
	return dirty, causes, refinedClean
}

// reverify is Apply's phase 4. Each dirty group is planned once (slice,
// dependency footprint, canonical identity per scenario), the plans
// cluster dirty groups into canonical equivalence classes, and the worker
// pool solves ONE representative per class — the remaining members
// inherit translated verdicts. This is dirtying at class granularity: a
// change that dirties twenty isomorphic tenant pairs costs one solve. The
// cache accounting lands in stats; the returned fresh entries and verdict
// origins are position-aligned with dirty.
func (s *Session) reverify(root obs.Span, dirty []slot, scens []topo.FailureScenario, stats *ApplyStats) ([]*groupEntry, [][]CheckOrigin, error) {
	origins := make([][]CheckOrigin, len(dirty))
	if len(dirty) == 0 {
		return nil, origins, nil
	}

	// Plan in parallel: in canonical mode most dirty groups never
	// reach a solver, so key construction would otherwise serialize
	// the Apply.
	canonSpan := root.Child("canonicalize")
	gplans := make([]*groupPlan, len(dirty))
	err := core.ForEachIndexed(len(dirty), s.opts.Workers, func(di int) error {
		members := s.table.recs[dirty[di]].members
		gp, err := s.planGroup(members[0].inv, scens, s.engs)
		if gp != nil {
			gp.members = len(members)
		}
		gplans[di] = gp
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	// Cluster by joined per-scenario canonical keys (first-seen order;
	// unclusterable groups stay singleton). The scenario axis is
	// already folded into the joined key, so the grid is n×1.
	clusters := symmetry.CanonClasses(len(dirty), 1, func(di, _ int) []byte {
		if gplans[di].cluster == "" {
			return nil
		}
		return []byte(gplans[di].cluster)
	})
	stats.DirtyClasses = len(clusters)
	if canonSpan.Enabled() {
		canonSpan = canonSpan.Label(fmt.Sprintf("dirty=%d classes=%d", len(dirty), len(clusters)))
	}
	canonSpan.End()

	results := make([]*groupEntry, len(dirty))
	stat := make([]verifyStats, len(dirty))
	m := s.metrics
	err = core.ForEachIndexed(len(clusters), s.opts.Workers, func(ci int) error {
		// One span per canonical class; each class is one pool work
		// unit, so these double as per-worker busy intervals
		// (worker_busy_ns sums them).
		csp := root.Child("class")
		if csp.Enabled() {
			csp = csp.Label(fmt.Sprintf("class=%d size=%d", ci, len(clusters[ci].Members)))
		}
		taskStart := time.Now()
		defer func() {
			csp.End()
			if m != nil {
				m.workerBusyNs.Add(time.Since(taskStart).Nanoseconds())
			}
		}()
		if m != nil {
			m.classSize.Observe(float64(len(clusters[ci].Members)))
		}
		lead := clusters[ci].Members[0].Group
		e, vs, err := s.verifyGroup(gplans[lead], scens)
		if err != nil {
			return err
		}
		results[lead], stat[lead] = e, vs
		for _, member := range clusters[ci].Members[1:] {
			di := member.Group
			me, ms, err := s.translateGroup(e, gplans[lead], gplans[di], scens)
			if err != nil {
				return err
			}
			results[di], stat[di] = me, ms
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for di := range dirty {
		stats.CacheHits += stat[di].hits
		stats.CanonHits += stat[di].canonHits
		stats.CacheMisses += stat[di].misses
		stats.CanonShared += stat[di].shared
		origins[di] = stat[di].origins
	}
	return results, origins, nil
}

// account folds one Apply's statistics into the session's last/lifetime
// counters and metric handles; reused is how many of its reports were
// symmetry copies.
func (s *Session) account(stats ApplyStats, reused int) {
	s.last = stats
	s.totals.Applies++
	s.totals.Solves += stats.CacheMisses
	s.totals.CacheHits += stats.CacheHits
	s.totals.CanonHits += stats.CanonHits
	s.totals.CanonShared += stats.CanonShared
	s.totals.Classes += stats.DirtyClasses
	s.totals.RefinedClean += stats.RefinedClean
	s.totals.DirtyInvs += stats.DirtyInvariants
	s.totals.TotalInvs += stats.Invariants
	s.totals.ReusedInvs += reused
	if m := s.metrics; m != nil {
		m.applies.Inc()
		m.changes.Add(int64(stats.Changes))
		m.solves.Add(int64(stats.CacheMisses))
		m.cacheHits.Add(int64(stats.CacheHits))
		m.canonHits.Add(int64(stats.CanonHits))
		m.canonShared.Add(int64(stats.CanonShared))
		m.refinedClean.Add(int64(stats.RefinedClean))
		m.budgetExceeded.Add(int64(stats.BudgetExceeded))
		m.dirtyGroups.Add(int64(stats.DirtyGroups))
		m.groups.Set(int64(stats.Groups))
		m.invariants.Set(int64(stats.Invariants))
		m.applySeconds.Observe(stats.Duration.Seconds())
		if stats.Groups > 0 {
			m.dirtyFraction.Observe(float64(stats.DirtyGroups) / float64(stats.Groups))
		}
	}
}

// CanonStats exposes the underlying verifier's canonicalization counters
// (equivalence classes formed — each exactly one solved representative —
// member checks served by witness translation, and checks solved on a
// warm isomorphic encoding via namespace translation) alongside the
// session's Totals — production observability for hit-rate regressions.
func (s *Session) CanonStats() (classes, shared, encTranslated int64) {
	return s.verifier.CanonStats()
}

// SolverStats aggregates SAT solver work counters across every encoding
// the session's verifier has built (see core.Verifier.SolverStats).
func (s *Session) SolverStats() sat.Stats {
	return s.verifier.SolverStats()
}

// Observability returns the session's obs handle (nil when
// instrumentation is disabled) — the daemon serves stats/trace snapshots
// and the Prometheus endpoint from it.
func (s *Session) Observability() *obs.Obs {
	return s.sopts.Obs
}

// groupPlan is the planned identity of one dirty group: per-scenario check
// plans (slice + canonical identity), per-scenario dependency read-sets,
// and the joined canonical key that clusters isomorphic dirty groups ("" =
// not clusterable; some scenario's check did not canonicalize).
type groupPlan struct {
	rep     inv.Invariant
	plans   []*core.CheckPlan
	reads   []slices.ReadSet
	cluster string
	// members is the group's invariant count (filled at the plan call
	// site; provenance for the slow-solve log).
	members int
}

// planGroup plans one representative across the effective scenarios.
func (s *Session) planGroup(rep inv.Invariant, scens []topo.FailureScenario, engs []*tf.Engine) (*groupPlan, error) {
	gp := &groupPlan{rep: rep}
	var joined []byte
	canonOK := true
	for si := range scens {
		cp, err := s.verifier.PlanOn(rep, scens[si], engs[si])
		if err != nil {
			return nil, err
		}
		gp.plans = append(gp.plans, cp)
		gp.reads = append(gp.reads, slices.ComputeReadSet(s.net.Topo, engs[si], cp.Slice()))
		if k := cp.CanonKey(); k != nil && canonOK {
			joined = appendFramed(joined, k)
		} else {
			canonOK = false
		}
	}
	if canonOK {
		gp.cluster = string(joined)
	}
	return gp, nil
}

// ruleReadKey projects the configuration of the middlebox currently bound
// at n onto universe (mbox.ReadKey). ok=false when no such box exists or
// its model has no description — the caller then dirties the group.
func (s *Session) ruleReadKey(n topo.NodeID, universe topo.AtomSet) (string, bool) {
	bi := findBox(s.net, n)
	if bi < 0 {
		return "", false
	}
	k, ok := mbox.ReadKey(nil, s.net.Boxes[bi].Model, universe)
	return string(k), ok
}

// newEntry assembles the read-set memory of a freshly verified group: the
// union node footprint across scenarios, and — unless some scenario's
// slice was whole — the union forwarding read atoms, the union address
// universe, and the rule-read projections of every slice box against that
// universe.
func (s *Session) newEntry(gp *groupPlan) *groupEntry {
	e := &groupEntry{touched: unionTouched(gp.reads)}
	for _, rs := range gp.reads {
		if rs.Coarse {
			e.coarse = true
			return e
		}
	}
	e.fib = map[topo.NodeID]topo.AtomSet{}
	for _, rs := range gp.reads {
		e.universe = e.universe.Union(rs.Universe)
		for n, atoms := range rs.FIB {
			e.fib[n] = e.fib[n].Union(atoms)
		}
	}
	e.boxKeys = map[topo.NodeID]string{}
	for _, cp := range gp.plans {
		for _, b := range cp.Slice().Boxes {
			if _, ok := e.boxKeys[b.Node]; ok {
				continue
			}
			if k, ok := mbox.ReadKey(nil, b.Model, e.universe); ok {
				e.boxKeys[b.Node] = string(k)
			}
		}
	}
	return e
}

func appendFramed(b, seg []byte) []byte {
	var hdr [10]byte
	n := binary.PutUvarint(hdr[:], uint64(len(seg)))
	b = append(b, hdr[:n]...)
	return append(b, seg...)
}

// unionTouched flattens per-scenario footprints into the sorted union the
// dependency index dirties on.
func unionTouched(reads []slices.ReadSet) []topo.NodeID {
	touched := elemSet{}
	for _, rs := range reads {
		touched.addAll(rs.Nodes)
	}
	out := make([]topo.NodeID, 0, len(touched))
	for n := range touched {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// verifyGroup re-verifies one planned representative under every effective
// scenario, consulting and feeding the verdict cache. Cache keys are
// canonical class keys when the check canonicalizes ('c' namespace) and
// exact content fingerprints otherwise ('x' namespace); canonical hits may
// come from an isomorphic slice in another namespace, in which case the
// cached witness is translated through the renamings. The per-scenario
// engines were brought up to date once in Apply phase 2 and are shared by
// every dirty group and pool worker.
func (s *Session) verifyGroup(gp *groupPlan, scens []topo.FailureScenario) (*groupEntry, verifyStats, error) {
	if hook := s.sopts.FaultHook; hook != nil {
		hook("solve")
	}
	e := s.newEntry(gp)
	var vs verifyStats
	for si, sc := range scens {
		cp := gp.plans[si]
		var key string
		canon := false
		if ck := cp.CanonKey(); ck != nil {
			key = "c" + string(ck)
			canon = true
		} else if fp, ok := fingerprint(gp.rep, sc, cp.Slice(), gp.reads[si].Nodes, s.engs[si].Tables(), s.net.Topo, s.opts); ok {
			key = "x" + string(fp)
		}
		var r core.Report
		hit := false
		source := ""
		if key != "" {
			s.cmu.Lock()
			cached, found := s.cache.Get(key)
			s.cmu.Unlock()
			if found && canon {
				// Canonical entry: translate the verdict (and witness)
				// from the producer's namespace into this check's. A
				// failed translation (ruled out by key equality, but
				// checked) degrades to a miss.
				if tr, ok := core.TranslatePlannedReport(cached.report, cached.ren, cp); ok {
					r = tr
					r.Cached = true
					// CanonShared marks cross-namespace inheritance; a hit
					// on the very same slice is a plain cached verdict.
					r.CanonShared = !cached.ren.Equal(cp.Renaming())
					hit = true
					vs.canonHits++
					source = SourceCanonHit
					if r.CanonShared {
						source = SourceCanonHitTranslated
					}
				}
			} else if found {
				r = cached.report
				r.Invariant = gp.rep
				r.Scenario = sc
				r.Cached = true
				r.Duration = 0
				hit = true
				source = SourceExactHit
			}
		}
		if hit {
			vs.hits++
		} else if s.expired() {
			// Past the request deadline: degrade to an explicit
			// budget-exceeded verdict instead of queueing another solve.
			// Cache hits above still answer (they cost nothing).
			r = budgetReport(gp.rep, sc, cp)
			source = SourceBudgetExceeded
		} else {
			var err error
			r, err = s.verifier.VerifyPlanned(cp)
			if err != nil {
				return nil, verifyStats{}, err
			}
			vs.misses++
			source = SourceFreshSolve
			if r.BudgetExceeded {
				source = SourceBudgetExceeded
			}
			s.observeSolve(gp, si, r)
			// Budget-degraded verdicts are artifacts of this request's
			// budget, not of the network: never cache them.
			if key != "" && !r.BudgetExceeded {
				s.cmu.Lock()
				s.cache.Put(key, cacheLine{r, cp.Renaming()})
				s.cmu.Unlock()
			}
		}
		if r.BudgetExceeded {
			e.exceeded = true
		}
		vs.origins = append(vs.origins, checkOrigin(si, source, hit, r))
		e.reports = append(e.reports, r)
	}
	return e, vs, nil
}

// verifyStats aggregates the cache accounting of one group's
// re-verification, plus the per-scenario verdict origins for explain.
type verifyStats struct {
	hits, canonHits, misses, shared int
	origins                         []CheckOrigin
}

// checkOrigin builds one provenance entry; solve time and conflicts are
// recorded only for checks that actually ran (hits and inherited verdicts
// cost nothing).
func checkOrigin(si int, source string, hit bool, r core.Report) CheckOrigin {
	o := CheckOrigin{Scenario: si, Source: source}
	if !hit {
		o.DurationNs = r.Duration.Nanoseconds()
		o.Conflicts = r.Result.SolverConflicts
	}
	return o
}

// observeSolve feeds one fresh solve into the latency histogram and, past
// the configured threshold, the slow-solve NDJSON log.
func (s *Session) observeSolve(gp *groupPlan, scenario int, r core.Report) {
	if m := s.metrics; m != nil {
		m.solveSeconds.Observe(r.Duration.Seconds())
	}
	if t := s.sopts.SlowSolve; t > 0 && r.Duration >= t {
		s.logSlowSolve(gp, scenario, r)
	}
}

// logSlowSolve emits one structured NDJSON line for a solve that crossed
// the SlowSolve threshold: which invariant and scenario, the canonical
// class key (fnv64a-hashed for line width; "exact" when the check did not
// canonicalize), the group's invariant count, and the solver's work
// counters.
func (s *Session) logSlowSolve(gp *groupPlan, scenario int, r core.Report) {
	w := s.sopts.SlowSolveWriter
	if w == nil {
		w = os.Stderr
	}
	classKey := "exact"
	if gp.cluster != "" {
		classKey = fmt.Sprintf("%016x", fnv64.Sum([]byte(gp.cluster)))
	}
	line, err := json.Marshal(struct {
		Event      string `json:"event"`
		Invariant  string `json:"invariant"`
		Scenario   int    `json:"scenario"`
		ClassKey   string `json:"class_key"`
		Invariants int    `json:"invariants"`
		Engine     string `json:"engine"`
		DurationNs int64  `json:"duration_ns"`
		Conflicts  int64  `json:"conflicts"`
	}{
		Event: "slow_solve", Invariant: gp.rep.Name(), Scenario: scenario,
		ClassKey: classKey, Invariants: gp.members, Engine: r.Engine,
		DurationNs: r.Duration.Nanoseconds(), Conflicts: r.Result.SolverConflicts,
	})
	if err != nil {
		return
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	w.Write(append(line, '\n'))
}

// budgetReport is the degraded verdict for a check the request deadline
// cut off before it could solve: Unknown, unsatisfied (conservative),
// explicitly marked.
func budgetReport(rep inv.Invariant, sc topo.FailureScenario, cp *core.CheckPlan) core.Report {
	sl := cp.Slice()
	return core.Report{
		Invariant:      rep,
		Scenario:       sc,
		Result:         inv.Result{Outcome: inv.Unknown},
		Satisfied:      false,
		SliceHosts:     len(sl.Hosts),
		SliceBoxes:     len(sl.Boxes),
		Whole:          sl.Whole,
		Engine:         "budget",
		Slice:          sl,
		BudgetExceeded: true,
	}
}

// translateGroup derives a dirty class member's entry from its class
// representative's: every scenario report is translated through the
// renamings. Translation failures (ruled out by cluster-key equality, but
// checked) fall back to solving the member directly. Returns the entry,
// how many reports were inherited, and how many fell back to a solve (the
// caller accounts those as cache misses — they are real solver work).
func (s *Session) translateGroup(lead *groupEntry, leadPlan, memPlan *groupPlan, scens []topo.FailureScenario) (*groupEntry, verifyStats, error) {
	e := s.newEntry(memPlan)
	var vs verifyStats
	for si := range scens {
		r, ok := core.TranslatePlannedReport(lead.reports[si], leadPlan.plans[si].Renaming(), memPlan.plans[si])
		source := SourceCanonShared
		inherited := true
		if ok {
			// The member's report is not re-cached under its own key: the
			// member and representative share one canonical key, so the
			// representative's entry answers both on the next Apply.
			r.Cached = lead.reports[si].Cached
			vs.shared++
		} else {
			var err error
			if r, err = s.verifier.VerifyPlanned(memPlan.plans[si]); err != nil {
				return nil, verifyStats{}, err
			}
			vs.misses++
			source = SourceFreshSolve
			if r.BudgetExceeded {
				source = SourceBudgetExceeded
			}
			inherited = false
			s.observeSolve(memPlan, si, r)
		}
		if r.BudgetExceeded {
			e.exceeded = true
		}
		vs.origins = append(vs.origins, checkOrigin(si, source, inherited, r))
		e.reports = append(e.reports, r)
	}
	return e, vs, nil
}

// assemble renders the complete report set in core.VerifyAll order: per
// group the representative's reports first, then symmetry copies per
// member. Scenario fields are rewritten to the current effective
// scenarios (entries reused across a liveness toggle carried stale ones;
// verdicts are position-aligned with the configured scenario list).
func (s *Session) assemble(scens []topo.FailureScenario) []core.Report {
	// The groups partition the invariant set and an entry holds one report
	// per scenario, so this is the exact size.
	out := make([]core.Report, 0, len(s.invs)*len(scens))
	for _, sl := range s.table.order {
		rec := &s.table.recs[sl]
		// Members[0] is the representative (told apart by position:
		// invariants may be uncomparable types, so interface equality
		// would panic).
		for mi, m := range rec.members {
			for si, r := range rec.entry.reports {
				r.Invariant, r.Scenario = m.inv, scens[si]
				if mi > 0 {
					r.Reused, r.Duration = true, 0
				}
				out = append(out, r)
			}
		}
	}
	return out
}
