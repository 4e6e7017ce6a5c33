package incr

// Transactional what-if verification. Propose runs the ordinary Apply
// pipeline on the live state with an undo trail armed: every write the
// pipeline makes in place — to a policy class, a liveness entry, a
// signature, a box's model, and the slice headers box and invariant edits
// swap — goes through set or setKey, which record it on the trail. The
// group table, which the pipeline rewrites wholesale, runs on a clone.
// When the run ends the trail is undone and the base's scalars (sessState)
// are reinstalled, so a proposal costs what it changes, not what the
// session holds. The pending transaction keeps the trail and the post
// state's scalars: Commit redoes the one and installs the other, Rollback
// drops both, leaving the session bit-identical to never having proposed.
// The shadow reads and fills the live verdict cache exactly as Apply does:
// a cached verdict is a function of its check's content, not of session
// state, so what a rolled-back proposal verified stays cached, as it does
// in the verifier's engine, encoding and journey caches.
//
// On a rejected propose the session derives minimal-repair suggestions:
// candidate sub-change-sets (the proposed set minus a small suspect
// subset) are each run and undone the same way — every suggestion reported
// was actually verified green, never guessed. The candidates run over
// those warm caches, the proposal's own verdicts included, so each costs
// no more than an incremental Apply.

import (
	"errors"
	"strconv"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/lru"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Transactional-ordering errors (satellite: typed, checked at both the
// Session API and the wire layer).
var (
	// ErrProposePending rejects a second Propose, or an Apply, while a
	// proposed change-set awaits Commit/Rollback.
	ErrProposePending = errors.New("incr: a proposed change-set is pending; commit or rollback first")
	// ErrNoPropose rejects Commit/Rollback with nothing proposed.
	ErrNoPropose = errors.New("incr: no proposed change-set is pending")
)

// Decision is the session's verdict on a proposed change-set.
type Decision int8

// Propose decisions.
const (
	// Accept: no invariant newly violated, no check budget-degraded.
	Accept Decision = iota
	// Reject: the change-set newly violates at least one invariant, or
	// some check exhausted its budget (conservative).
	Reject
)

// String names the decision.
func (d Decision) String() string {
	if d == Reject {
		return "reject"
	}
	return "accept"
}

// Repair is one verified minimal-repair suggestion: removing the listed
// changes (indices into the proposed change-set) from the proposal makes
// it verify green — no invariant worse off than before the propose and no
// budget-degraded check. Suggestions are found by re-verifying the
// reduced change-set through the shadow pipeline, so every Repair
// reported has actually been proven, never guessed.
type Repair struct {
	Drop []int
}

// ProposeResult is the outcome of one Propose: the full shadow report set
// (what the network would look like after Commit), its Apply-shaped
// stats, and the session's decision with supporting detail.
type ProposeResult struct {
	Reports []core.Report
	Stats   ApplyStats
	// Decision is advisory: the caller still chooses Commit or Rollback.
	Decision Decision
	// NewViolations counts checks unsatisfied under the shadow that were
	// satisfied before the propose (pre-existing violations don't count).
	NewViolations int
	// BudgetExceeded counts shadow checks degraded by a budget.
	BudgetExceeded int
	// RefinedClean counts groups the prefix/rule-level dependency index
	// kept clean on the shadow run — the refinement savings an Apply of
	// this change-set would see (mirrors ApplyStats.RefinedClean, surfaced
	// here so guardrail users see refinement effectiveness on rejected
	// change-sets too).
	RefinedClean int
	// Repairs lists the smallest verified repair subsets found (all
	// singletons that work, else all working pairs); empty when the
	// decision is Accept, repair is disabled, or no small subset helps.
	Repairs []Repair
	// RepairTruncated marks a repair search cut off by the request
	// deadline or the candidate cap before exhausting its size class.
	RepairTruncated bool
}

// sessState is the scalar half of the session's mutable state, as one
// value: what a shadow run saves before it starts and keeps when it ends,
// and Commit installs. The Session embeds the live one. The containers the
// pipeline edits in place (the network's boxes, policy classes and FIB
// provider; the liveness set; the invariant and signature lists) are not
// in it: their edits go on the trail.
type sessState struct {
	// scenGen counts liveness toggles: the effective scenario list, and
	// with it every report's scenario, changes exactly when it does.
	scenGen  uint64
	needFull bool
	// nextOrd is the ord the next invariant added gets (table.go).
	nextOrd uint64
	// engs holds one engine per effective scenario, current as of the last
	// Apply (nil before the first and after invalidate). Replaced, never
	// written in place.
	engs []*tf.Engine
	// table is the symmetry partition of invs and what is known about each
	// group (table.go); regrouped only when the invariant list or the
	// policy classes change. A shadow run edits a clone.
	table *groupTable

	seq    int
	last   ApplyStats
	totals Totals
	// lastExplain holds the provenance records of the most recent Apply's
	// dirty groups (see explain.go).
	lastExplain []ExplainRecord
}

// trail is an undo log of in-place writes. Each entry swaps the location
// it wrote with the value it holds, so the entries run backwards undo the
// writes and run forwards redo them.
type trail []func()

func (tr trail) undo() {
	for i := len(tr) - 1; i >= 0; i-- {
		tr[i]()
	}
}

func (tr trail) redo() {
	for _, f := range tr {
		f()
	}
}

// set is the pipeline's one way to write a location in place: *p = v,
// recorded on tr when a trail is armed (nil costs nothing). A structural
// edit builds a fresh slice and sets the header: it never appends into
// capacity a recorded header still covers.
func set[T any](tr *trail, p *T, v T) {
	if tr != nil {
		old := *p
		*tr = append(*tr, func() { *p, old = old, *p })
	}
	*p = v
}

// setKey is set for the entry k of m; the zero value deletes it.
func setKey[K, V comparable](tr *trail, m map[K]V, k K, v V) {
	var zero V
	setEntry(tr, m, k, v, v != zero)
}

// setEntry is set for the entry k of m, deleted unless keep.
func setEntry[K comparable, V any](tr *trail, m map[K]V, k K, v V, keep bool) {
	old, had := swapKey(m, k, v, keep)
	if tr != nil {
		o, h := old, had
		*tr = append(*tr, func() { o, h = swapKey(m, k, o, h) })
	}
}

// swapKey makes m[k] v, or absent unless keep, and returns what it was.
func swapKey[K comparable, V any](m map[K]V, k K, v V, keep bool) (V, bool) {
	old, had := m[k]
	if keep {
		m[k] = v
	} else {
		delete(m, k)
	}
	return old, had
}

// pendingTx is a proposed-but-undecided transaction: the shadow run's
// trail, undone, and the scalars it ended with.
type pendingTx struct {
	state  sessState
	trail  trail
	result *ProposeResult
	// changes is the proposed change-set, kept so Commit can append it
	// to the durable journal (persist.go) after installing the shadow.
	changes []Change
}

// cacheLine is one verdict-cache value: a report and the renaming its
// producer's namespace canonicalizes under (nil for exact-fingerprint
// entries), which a hit from an isomorphic slice translates through.
type cacheLine struct {
	report core.Report
	ren    *slices.Renaming
}

// verdictCacheCap bounds the verdict cache (DESIGN.md, "Bounded memory").
const verdictCacheCap = 1 << 16

func newVerdictCache() *lru.Cache[string, cacheLine] {
	return lru.New[string, cacheLine](verdictCacheCap, nil)
}

// ProposePending reports whether a proposed change-set awaits a decision.
func (s *Session) ProposePending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending != nil
}

// Propose verifies a change-set against shadow state without committing
// it: the returned result holds the verdicts the network would have after
// the change, a decision, and — on new violations — verified
// minimal-repair suggestions. Only the verdict cache sees the shadow run;
// follow with Commit to promote the shadow atomically or Rollback to
// discard it. Propose accepts every change-set Apply accepts; a failed
// Propose leaves the session as before (no poisoning — the shadow is
// simply discarded). Its baseline is the current report set, settled.
func (s *Session) Propose(changes []Change) (*ProposeResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.proposeLocked(changes)
	if err != nil {
		return nil, err
	}
	s.inPending(func() { res.Reports = s.assemble(s.effectiveScenarios()) })
	return res, nil
}

// AppendPropose is the daemon's propose call: Propose, and the line
// json.Encoder writes for EncodeProposeResult of its result spliced from
// the shadow's fragments, under one lock, with no report set assembled.
func (s *Session) AppendPropose(buf []byte, id string, changes []Change) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.proposeLocked(changes); err != nil {
		return buf, err
	}
	return s.appendProposeLine(buf, id), nil
}

// proposeLocked is Propose's body, under s.mu: the result it leaves
// pending carries no reports. New violations are counted from the base's
// and the shadow's unsatisfied tallies, both read off their group tables.
func (s *Session) proposeLocked(changes []Change) (*ProposeResult, error) {
	if s.pending != nil {
		return nil, ErrProposePending
	}
	if err := s.settle(); err != nil {
		return nil, err
	}
	s.armDeadline()

	baseUnsat := s.unsatTally()
	tr, post, unsat, err := s.runShadow(changes)
	if err != nil {
		return nil, err
	}

	res := &ProposeResult{Stats: post.last, BudgetExceeded: post.last.BudgetExceeded,
		RefinedClean: post.last.RefinedClean, NewViolations: countNew(baseUnsat, unsat)}
	if res.NewViolations > 0 || res.BudgetExceeded > 0 {
		res.Decision = Reject
	}
	if res.NewViolations > 0 {
		s.searchRepairs(baseUnsat, changes, res)
	}

	s.pending = &pendingTx{state: post, trail: tr, result: res, changes: changes}
	return res, nil
}

// inPending runs f with the pending shadow's state installed, and the base
// state back afterwards. Its trail is armed while f runs, so what f writes
// in place is undone with it.
func (s *Session) inPending(f func()) {
	p, base := s.pending, s.sessState
	p.trail.redo()
	s.sessState, s.trail = p.state, &p.trail
	defer func() {
		s.trail = nil
		p.trail.undo()
		s.sessState = base
	}()
	f()
}

// appendProposeLine appends the pending Propose's line, under s.mu.
func (s *Session) appendProposeLine(buf []byte, id string) []byte {
	p := s.pending
	pr := *p.result
	pr.Reports = nil
	head := EncodeProposeResult(s.net.Topo, id, p.changes, &pr)
	s.inPending(func() { buf = s.splice(buf, &head, &head.Result) })
	return buf
}

// Commit promotes the pending shadow: its state, fully computed at Propose
// time, installs atomically, leaving the session identical to one that had
// Apply'd the change-set directly. Returns the shadow's report set.
func (s *Session) Commit() ([]core.Report, error) {
	reports, _, err := s.CommitID("")
	return reports, err
}

// CommitID is Commit with a client request id (see ApplyID): if the id
// already committed — a replayed commit after the daemon restarted —
// the current report set returns with duplicate=true instead of
// ErrNoPropose. With persistence enabled the committed change-set is
// journaled before the call returns.
func (s *Session) CommitID(id string) (_ []core.Report, duplicate bool, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reportsAfter(s.commitLocked(id))
}

// CommitAck is the daemon's commit call: CommitID acknowledged on the
// wire, its unsatisfied count tallied off the committed group table and
// its totals the installed shadow run's.
func (s *Session) CommitAck(id string) (WireTxAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	duplicate, err := s.commitLocked(id)
	if err != nil {
		return WireTxAck{}, err
	}
	totals := EncodeTotals(s.totals)
	ack := WireTxAck{Op: "commit", Id: id, Seq: s.last.Seq, Committed: true, Duplicate: duplicate, Totals: &totals}
	for _, n := range s.unsatTally() {
		ack.Unsatisfied += n
	}
	return ack, nil
}

// commitLocked is what CommitID and CommitAck share, under s.mu.
func (s *Session) commitLocked(id string) (duplicate bool, err error) {
	if s.replayed(id) {
		return true, s.settle()
	}
	if s.pending == nil {
		return false, ErrNoPropose
	}
	p := s.pending
	s.pending = nil
	p.trail.redo()
	s.sessState = p.state
	s.persistApply(id, p.changes)
	return false, nil
}

// Rollback discards the pending shadow and its trail: the session state
// (sessState, the containers and the network) is bit-identical to never
// having proposed. The verdict cache keeps what the shadow verified, so a
// rejected change proposed or applied again is answered from it.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return ErrNoPropose
	}
	s.pending = nil
	return nil
}

// runShadow runs the apply pipeline with a trail armed and the group table
// cloned, keeps the post state's scalars and its unsatisfied tally, then
// undoes the trail and reinstalls the base's scalars — on every path,
// including pipeline errors (applyLocked contains panics itself, so none
// escape past it).
func (s *Session) runShadow(changes []Change) (tr trail, post sessState, unsat map[string]int, err error) {
	base := s.sessState
	s.table, s.trail = base.table.clone(), &tr
	if err = s.applyLocked(changes); err == nil {
		post, unsat = s.sessState, s.unsatTally()
	}
	s.trail = nil
	tr.undo()
	s.sessState = base
	return tr, post, unsat, err
}

// checkKey identifies one (invariant, scenario) check across report sets.
func checkKey(i inv.Invariant, sc topo.FailureScenario) string {
	b := []byte(i.Name())
	for _, n := range sc.Nodes() { // sorted
		b = strconv.AppendInt(append(b, '|'), int64(n), 10)
	}
	return string(b)
}

// unsatTally tallies the current report set's unsatisfied checks per check
// key (counts, not sets: duplicate invariant names stay comparable across
// regroupings), read off the group table: only unsatisfied verdicts are
// visited, once per member.
func (s *Session) unsatTally() map[string]int {
	m := map[string]int{}
	scens := s.effectiveScenarios()
	for _, sl := range s.table.order {
		r := &s.table.recs[sl]
		for si, rep := range r.entry.reports {
			if !rep.Satisfied {
				for _, mem := range r.members {
					m[checkKey(mem.inv, scens[si])]++
				}
			}
		}
	}
	return m
}

// countNew sums the unsatisfied checks in after that base cannot account
// for — the violations the change-set introduced.
func countNew(base, after map[string]int) int {
	n := 0
	for k, c := range after {
		if extra := c - base[k]; extra > 0 {
			n += extra
		}
	}
	return n
}

// Repair search bounds: subsets up to pairs, and a hard cap on candidate
// verifications (each candidate is one incremental shadow apply over warm
// caches). A truncated search is reported, never silent.
const maxRepairCandidates = 48

// searchRepairs finds the smallest suspect subsets whose removal from the
// change-set restores every newly violated invariant, by re-verifying
// each candidate through the shadow pipeline (the verdict cache already
// holds the proposal's, which keeps candidates warm). Suspects are the
// network-mutating changes; invariant additions are never dropped (the
// operator asked for them).
func (s *Session) searchRepairs(baseUnsat map[string]int, changes []Change, res *ProposeResult) {
	var suspects []int
	for i, ch := range changes {
		switch ch.Kind {
		case KindNodeDown, KindNodeUp, KindFIB, KindBoxRemove, KindBoxReconfig, KindRelabel:
			suspects = append(suspects, i)
		}
	}
	tried := 0
	// try re-verifies the change-set without drop (one index or two) and
	// keeps drop when that is green: no invariant worse off than base, no
	// budget-degraded verdict.
	try := func(drop ...int) {
		if res.RepairTruncated || tried >= maxRepairCandidates || s.expired() {
			res.RepairTruncated = true
			return
		}
		tried++
		remaining := make([]Change, 0, len(changes)-len(drop))
		for i, ch := range changes {
			if i != drop[0] && i != drop[len(drop)-1] {
				remaining = append(remaining, ch)
			}
		}
		_, post, unsat, err := s.runShadow(remaining)
		if err == nil && post.last.BudgetExceeded == 0 && countNew(baseUnsat, unsat) == 0 {
			res.Repairs = append(res.Repairs, Repair{Drop: drop})
		}
	}
	for _, i := range suspects {
		try(i)
	}
	if len(res.Repairs) > 0 {
		return
	}
	for a, i := range suspects {
		for _, j := range suspects[a+1:] {
			try(i, j)
		}
	}
}
