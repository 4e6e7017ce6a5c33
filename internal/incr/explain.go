package incr

// Dirtying provenance ("explain"): for every group the last Apply (or
// Propose shadow) re-verified, the session records WHY it was dirtied —
// which change, through which dependency channel, down to the read atom
// for forwarding-table deltas — and HOW each of its per-scenario verdicts
// was then obtained (exact cache hit, canonical hit with or without
// witness translation, fresh solve, inherited from a class
// representative, or budget-degraded). This turns the refined dependency
// index of PR 5 and the canonical sharing of PR 4 from trusted black
// boxes into auditable ones: an operator can ask the daemon `explain` and
// see, per re-verified group, the exact (node, atom) whose matching-rule
// subsequence changed.

import (
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// Dirty-cause reasons (DirtyCause.Reason).
const (
	// CauseFull: everything was re-verified — initial verification, a
	// structural change (origin-agnostic box add/remove, or a relabel
	// that mints a brand-new policy class out of a surviving one under
	// origin-agnostic boxes), or recovery after a failed Apply. Ordinary
	// relabels are scoped to the affected representatives' footprints
	// (see Session.relabelImpact).
	CauseFull = "full"
	// CauseNewGroup: the group had no prior entry (new invariant, the
	// grouping shifted under invariant add/remove, or the group's
	// representative changed — its verdicts were another invariant's).
	CauseNewGroup = "new_group"
	// CauseBudgetRetry: the prior entry held a budget-degraded (Unknown)
	// verdict; the group re-runs unconditionally once budget allows.
	CauseBudgetRetry = "budget_retry"
	// CauseNode: a footprint element's liveness, membership or policy
	// changed (the coarse node channel).
	CauseNode = "node"
	// CauseFIB: a forwarding table the group read changed, and the group
	// had no refined read atoms to screen against (coarse entry).
	CauseFIB = "fib"
	// CauseFIBAtom: a forwarding table changed AND one of the group's read
	// atoms resolves differently under the new table — Atom names the
	// witness address.
	CauseFIBAtom = "fib_atom"
	// CauseBoxConfig: a middlebox the group's slice contains was
	// reconfigured and its rule-read projection onto the group's address
	// universe differs (or no projection was stored).
	CauseBoxConfig = "box_config"
)

// Verdict sources (CheckOrigin.Source).
const (
	// SourceExactHit: verdict-cache hit under the exact content key.
	SourceExactHit = "exact_hit"
	// SourceCanonHit: verdict-cache hit under the canonical class key, on
	// the very same slice (no translation needed).
	SourceCanonHit = "canon_hit"
	// SourceCanonHitTranslated: canonical-key hit whose cached verdict came
	// from an isomorphic but differently named slice; the witness was
	// translated through the renamings.
	SourceCanonHitTranslated = "canon_hit_translated"
	// SourceFreshSolve: the check actually ran a solver (or explicit
	// search) this Apply.
	SourceFreshSolve = "fresh_solve"
	// SourceCanonShared: the verdict was inherited from the group's
	// canonical-class representative solved in the same Apply.
	SourceCanonShared = "canon_shared"
	// SourceBudgetExceeded: the request budget cut the check off; the
	// verdict is a conservative Unknown.
	SourceBudgetExceeded = "budget_exceeded"
)

// DirtyCause names why one group was re-verified.
type DirtyCause struct {
	// Reason is one of the Cause* constants.
	Reason string
	// Node is the dirtying element for the node/fib/box channels.
	Node    topo.NodeID
	HasNode bool
	// Atom is the witness read address for CauseFIBAtom: an address the
	// group's slice read at Node whose matching-rule subsequence differs
	// between the old and new table.
	Atom    pkt.Addr
	HasAtom bool
	// Change indexes the dirtying change within the Apply's change-set
	// (-1 when the cause is not attributable to a single change — full
	// re-verification, regrouping, budget retries, or aggregate FIB drift).
	Change int
	// ChangeDesc is the human rendering of that change ("" when Change is
	// -1).
	ChangeDesc string
}

// CheckOrigin records how one per-scenario verdict of a re-verified group
// was obtained.
type CheckOrigin struct {
	// Scenario indexes the session's effective scenario list.
	Scenario int `json:"scenario"`
	// Source is one of the Source* constants.
	Source string `json:"source"`
	// DurationNs is the check's solve time (0 for cache hits and
	// inherited verdicts).
	DurationNs int64 `json:"duration_ns"`
	// Conflicts counts SAT conflicts attributable to this check (SAT
	// engine only).
	Conflicts int64 `json:"conflicts,omitempty"`
}

// ExplainRecord is the provenance of one re-verified group.
type ExplainRecord struct {
	// Seq is the Apply sequence number the record belongs to.
	Seq int
	// GroupKey is the group's stable identity: its members' symmetry
	// signature, signed with no policy classes in NoSymmetry mode.
	GroupKey string
	// Members lists the invariant names in the group (representative
	// first).
	Members []string
	Cause   DirtyCause
	Checks  []CheckOrigin
}

// Explain returns provenance records for every group the most recent
// Apply (or the pending Propose's shadow run) re-verified, in dirty-plan
// order. Groups left clean — including refined-clean ones — have no
// record: they were not re-verified. The slice is a copy.
func (s *Session) Explain() []ExplainRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ExplainRecord(nil), s.explainLocked()...)
}

// explainLocked picks the record set the caller should see: the pending
// Propose's shadow records while a transaction awaits its decision (that
// run is what the operator is auditing), the live set otherwise.
// Rollback leaves the live set untouched, bit-identical to never having
// proposed; Commit installs the shadow's.
func (s *Session) explainLocked() []ExplainRecord {
	if s.pending != nil {
		return s.pending.state.lastExplain
	}
	return s.lastExplain
}

// ExplainGroup returns the provenance record of one group by its key
// (ok=false when the last Apply did not re-verify it).
func (s *Session) ExplainGroup(key string) (ExplainRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.explainLocked() {
		if r.GroupKey == key {
			return r, true
		}
	}
	return ExplainRecord{}, false
}
