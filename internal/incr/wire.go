package incr

// The newline-delimited JSON wire protocol of cmd/vmnd. Each input line is
// one change-set: either a single change object or an array of them,
// applied atomically. Each output line is one Result. Nodes are referenced
// by topology name; addresses, prefixes, invariants and box configurations
// are spelled as in description files (internal/netdesc owns those codecs).
//
//	{"op":"node_down","node":"fw1"}
//	[{"op":"fw_del","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"},
//	 {"op":"relabel","node":"h0-0","class":"broken-0"}]
//	{"op":"inv_add","invariant":{"type":"simple_isolation","dst":"h1-0",
//	  "src_addr":"10.0.0.1","label":"iso g0->g1"}}
//	{"op":"box_state","node":"fw1","box":{"type":"firewall","default_allow":true,
//	  "acl":[{"action":"deny","src":"10.0.0.0/24","dst":"10.1.0.0/24"}]}}
//
// Supported ops: node_down, node_up, relabel, box_remove, box_state
// (bind a whole box configuration at a middlebox, replacing the one bound
// there if any), fw_allow, fw_deny, fw_del
// (prepend/delete one firewall ACL entry), inv_add, inv_remove, noop.
//
// A change is data. Decoding reads the network and never writes it: the
// firewall ops clone the targeted firewall, edit the clone and decode to the
// swap, so a line that fails to decode, a change-set the session refuses
// and a proposal that is rolled back all leave no trace. The same
// vocabulary is the journal's: EncodeChange writes an applied change as
// the wire change that reproduces it (a bind as box_state), and
// recovery replays records through this file's decoder.
//
// Transactional ops wrap a change-set in a request envelope:
//
//	{"op":"propose","id":"r1","changes":[{"op":"fw_del","node":"fw1",
//	  "src":"10.0.0.0/24","dst":"10.1.0.0/24"}]}
//	{"op":"commit","id":"r2"}
//	{"op":"rollback","id":"r3"}
//
// A propose verifies the change-set against shadow state and answers with
// a decision plus verified repair suggestions on new violations; commit
// promotes the shadow, rollback discards it bit-exactly.
//
// An "apply_batch" envelope carries a change list to coalesce (see
// Coalesce) before one atomic apply; its result reports the raw and
// eliminated change counts as enqueued/coalesced.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/topo"
)

// WireChange is the JSON form of one change, on the wire and in the
// journal.
type WireChange struct {
	Op        string         `json:"op"`
	Node      string         `json:"node,omitempty"`
	Class     string         `json:"class,omitempty"`
	Src       string         `json:"src,omitempty"` // CIDR prefix
	Dst       string         `json:"dst,omitempty"` // CIDR prefix
	Invariant *WireInvariant `json:"invariant,omitempty"`
	Name      string         `json:"name,omitempty"`
	// Box is the whole configuration a box_state installs at Node.
	Box *netdesc.Box `json:"box,omitempty"`
}

// WireRequest is the JSON envelope of one non-array vmnd input line: a
// plain change (promoted WireChange fields) or a transactional op
// ("propose" with Changes, "commit", "rollback") with an optional request
// id echoed in the response.
type WireRequest struct {
	WireChange
	Id      string       `json:"id,omitempty"`
	Changes []WireChange `json:"changes,omitempty"`
}

// WireInvariant is the JSON form of an invariant: the description
// format's, validated and resolved by netdesc.BuildInvariant.
type WireInvariant = netdesc.Invariant

// WireReport is the JSON form of one core.Report.
type WireReport struct {
	Invariant  string   `json:"invariant"`
	Scenario   []string `json:"scenario,omitempty"` // failed node names
	Outcome    string   `json:"outcome"`
	Satisfied  bool     `json:"satisfied"`
	Engine     string   `json:"engine"`
	SliceHosts int      `json:"slice_hosts"`
	SliceBoxes int      `json:"slice_boxes"`
	Whole      bool     `json:"whole,omitempty"`
	Reused     bool     `json:"reused,omitempty"`
	Cached     bool     `json:"cached,omitempty"`
	// CanonShared marks verdicts inherited from a canonical-equivalence-
	// class representative (witness translated through the renamings).
	CanonShared bool `json:"canon_shared,omitempty"`
	// BudgetExceeded marks a check degraded by a budget (request
	// deadline, solver conflict cap): outcome "unknown", unsatisfied.
	BudgetExceeded bool  `json:"budget_exceeded,omitempty"`
	DurationNs     int64 `json:"duration_ns"`
}

// WireResult is the JSON form of one Apply outcome.
type WireResult struct {
	Seq             int `json:"seq"`
	Changes         int `json:"changes"`
	Invariants      int `json:"invariants"`
	Groups          int `json:"groups"`
	DirtyGroups     int `json:"dirty_groups"`
	DirtyInvariants int `json:"dirty_invariants"`
	// DirtyClasses counts canonical equivalence classes among the dirty
	// groups (one solve per class); CanonShared the reports inherited from
	// a class representative; CanonHits the verdict-cache hits served
	// through canonical class keys. Hit-rate regressions in production
	// show up here.
	DirtyClasses int `json:"dirty_classes,omitempty"`
	CanonShared  int `json:"canon_shared,omitempty"`
	// RefinedClean counts groups kept clean by prefix/rule-level dirtying
	// that node-granularity dirtying would have re-verified — the refined
	// dependency index's savings, per Apply.
	RefinedClean int `json:"refined_clean,omitempty"`
	CacheHits    int `json:"cache_hits"`
	CanonHits    int `json:"canon_hits,omitempty"`
	CacheMisses  int `json:"cache_misses"`
	// Enqueued is the raw change count handed to an apply_batch before
	// coalescing; Coalesced how many of them coalescing eliminated
	// (changes is what survived and was applied). Absent on plain applies.
	Enqueued   int   `json:"enqueued,omitempty"`
	Coalesced  int   `json:"coalesced,omitempty"`
	DurationNs int64 `json:"duration_ns"`
	// BudgetExceeded counts budget-degraded checks in this result.
	BudgetExceeded int          `json:"budget_exceeded,omitempty"`
	Unsatisfied    int          `json:"unsatisfied"`
	Reports        []WireReport `json:"reports"`
	// Id echoes the request id, when one was given.
	Id string `json:"id,omitempty"`
	// Duplicate marks a replayed request id: the change-set was NOT
	// re-applied (it already was, possibly before a daemon restart) and
	// the reports are the session's current verdicts. At-least-once
	// clients treat this as the ack they missed.
	Duplicate bool `json:"duplicate,omitempty"`
}

// WireError is the JSON form of a rejected request. Op and Id echo the
// failing request when they could be parsed.
type WireError struct {
	Seq   int    `json:"seq"`
	Error string `json:"error"`
	Op    string `json:"op,omitempty"`
	Id    string `json:"id,omitempty"`
}

// WireRepair is one verified minimal-repair suggestion: drop these
// entries (0-based indices into the proposed change-set) and the proposal
// verifies green. Ops describes the dropped changes for humans.
type WireRepair struct {
	Drop []int    `json:"drop"`
	Ops  []string `json:"ops,omitempty"`
}

// WireProposeResult is the JSON form of one Propose outcome.
type WireProposeResult struct {
	Op             string `json:"op"` // always "propose"
	Id             string `json:"id,omitempty"`
	Decision       string `json:"decision"`
	NewViolations  int    `json:"new_violations"`
	BudgetExceeded int    `json:"budget_exceeded,omitempty"`
	// RefinedClean counts groups the prefix/rule-level dependency index
	// kept clean on the shadow run (mirrors the Apply-path refined_clean,
	// so guardrail users see refinement effectiveness on rejected
	// change-sets too).
	RefinedClean int          `json:"refined_clean,omitempty"`
	Repairs      []WireRepair `json:"repairs,omitempty"`
	// RepairTruncated marks a repair search cut off by the deadline or
	// candidate cap before exhausting its subset size class.
	RepairTruncated bool `json:"repair_truncated,omitempty"`
	// Result is the full shadow verification result — the verdicts the
	// network would have after Commit.
	Result WireResult `json:"result"`
}

// WireTxAck is the JSON form of a commit/rollback (or inject_panic)
// acknowledgement.
type WireTxAck struct {
	Op          string `json:"op"`
	Id          string `json:"id,omitempty"`
	Seq         int    `json:"seq"`
	Committed   bool   `json:"committed,omitempty"`
	RolledBack  bool   `json:"rolled_back,omitempty"`
	Unsatisfied int    `json:"unsatisfied,omitempty"`
	// Duplicate marks a replayed commit id (see WireResult.Duplicate):
	// the transaction already committed, nothing was re-installed.
	Duplicate bool `json:"duplicate,omitempty"`
	// Totals snapshots the session-lifetime counters after a commit — the
	// state the installed shadow run left them in (absent on rollback and
	// inject_panic acks).
	Totals *WireTotals `json:"totals,omitempty"`
}

// WireTotals is the session-lifetime Totals counters, which carry their
// own JSON form.
type WireTotals = Totals

// EncodeTotals renders session-lifetime counters on the wire.
func EncodeTotals(t Totals) WireTotals { return t }

// WireSolverStats is the JSON form of aggregate SAT solver counters.
type WireSolverStats struct {
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Restarts     int64 `json:"restarts"`
	Learnt       int64 `json:"learnt"`
}

// WireStats is the response to the "stats" introspection op: lifetime
// totals, canonicalization counters, aggregate solver work, and a flat
// snapshot of the metrics registry (absent when the daemon runs without
// observability).
type WireStats struct {
	Op     string     `json:"op"` // always "stats"
	Id     string     `json:"id,omitempty"`
	Seq    int        `json:"seq"`
	Totals WireTotals `json:"totals"`
	// Canonicalization counters (core.Verifier.CanonStats).
	CanonClasses       int64              `json:"canon_classes"`
	CanonSharedChecks  int64              `json:"canon_shared_checks"`
	CanonEncTranslated int64              `json:"canon_enc_translated"`
	Solver             WireSolverStats    `json:"solver"`
	Metrics            map[string]float64 `json:"metrics,omitempty"`
	// RecoveredGroups / ReverifiedOnRecovery carry the warm-restart
	// accounting when the daemon recovered from a state directory:
	// symmetry groups served entirely from the restored verdict store,
	// and restored verdicts re-checked against fresh solves before the
	// store was trusted. Absent (zero) without persistence.
	RecoveredGroups      int `json:"recovered_groups,omitempty"`
	ReverifiedOnRecovery int `json:"reverified_on_recovery,omitempty"`
}

// WirePersistStatus is the response to the "persist_status" op: the
// durability layer's live accounting plus what startup recovery did.
type WirePersistStatus struct {
	Op  string `json:"op"` // always "persist_status"
	Id  string `json:"id,omitempty"`
	Seq int    `json:"seq"`
	// Enabled reports the daemon runs with a state directory.
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir,omitempty"`
	Fsync   string `json:"fsync,omitempty"`
	// SnapshotSeq is the apply sequence the on-disk snapshot covers;
	// JournalRecords/JournalBytes size the journal suffix on top of it.
	SnapshotSeq    int   `json:"snapshot_seq,omitempty"`
	JournalRecords int   `json:"journal_records,omitempty"`
	JournalBytes   int64 `json:"journal_bytes,omitempty"`
	AppliedIds     int   `json:"applied_ids,omitempty"`
	// Degraded, when non-empty, means journaling is off (an
	// unpersistable change or an I/O failure) and the next restart will
	// cold start.
	Degraded string `json:"degraded,omitempty"`
	// Recovery outcome of THIS process's startup.
	Recovered            bool   `json:"recovered,omitempty"`
	ColdStart            bool   `json:"cold_start,omitempty"`
	Reason               string `json:"reason,omitempty"`
	RecoveredGroups      int    `json:"recovered_groups,omitempty"`
	ReverifiedOnRecovery int    `json:"reverified_on_recovery,omitempty"`
}

// EncodePersistStatus renders the durability status on the wire.
func EncodePersistStatus(id string, ps PersistStatus) WirePersistStatus {
	fsync := ""
	if ps.Enabled {
		fsync = ps.Sync.String()
	}
	return WirePersistStatus{
		Op:                   "persist_status",
		Id:                   id,
		Seq:                  ps.Seq,
		Enabled:              ps.Enabled,
		Dir:                  ps.Dir,
		Fsync:                fsync,
		SnapshotSeq:          ps.SnapshotSeq,
		JournalRecords:       ps.JournalRecords,
		JournalBytes:         ps.JournalBytes,
		AppliedIds:           ps.AppliedIDs,
		Degraded:             ps.Degraded,
		Recovered:            ps.Recovery.Recovered,
		ColdStart:            ps.Recovery.ColdStart,
		Reason:               ps.Recovery.Reason,
		RecoveredGroups:      ps.Recovery.RecoveredGroups,
		ReverifiedOnRecovery: ps.Recovery.ReverifiedOnRecovery,
	}
}

// WireTrace is the response to the "trace" op: the tracer's buffered
// spans, drained (a second trace request returns only spans recorded
// since). Empty when tracing is disabled.
type WireTrace struct {
	Op    string           `json:"op"` // always "trace"
	Id    string           `json:"id,omitempty"`
	Seq   int              `json:"seq"`
	Spans []obs.SpanRecord `json:"spans"`
}

// WireCheckOrigin is one verdict's provenance, which carries its own JSON
// form.
type WireCheckOrigin = CheckOrigin

// WireExplainGroup is the JSON form of one re-verified group's provenance.
type WireExplainGroup struct {
	Group      string   `json:"group"`
	Invariants []string `json:"invariants"`
	Reason     string   `json:"reason"`
	// Node and Atom name the dirtying element and witness read address
	// (present for the node/fib/box channels resp. refined FIB dirtying).
	Node string `json:"node,omitempty"`
	Atom string `json:"atom,omitempty"`
	// ChangeIndex is the dirtying change's position in the request's
	// change-set (-1 when the cause is not attributable to one change).
	ChangeIndex int               `json:"change_index"`
	Change      string            `json:"change,omitempty"`
	Checks      []WireCheckOrigin `json:"checks"`
}

// WireExplain is the response to the "explain" op: provenance for every
// group the most recent Apply (or the pending Propose's shadow) had to
// re-verify. An optional "name" filter restricts it to one group key.
type WireExplain struct {
	Op     string             `json:"op"` // always "explain"
	Id     string             `json:"id,omitempty"`
	Seq    int                `json:"seq"`
	Groups []WireExplainGroup `json:"groups"`
}

// EncodeExplain renders provenance records on the wire.
func EncodeExplain(t *topo.Topology, id string, seq int, recs []ExplainRecord) WireExplain {
	out := WireExplain{Op: "explain", Id: id, Seq: seq}
	for _, rec := range recs {
		g := WireExplainGroup{
			Group:       rec.GroupKey,
			Invariants:  rec.Members,
			Reason:      rec.Cause.Reason,
			ChangeIndex: rec.Cause.Change,
			Change:      rec.Cause.ChangeDesc,
			Checks:      rec.Checks,
		}
		if rec.Cause.HasNode && rec.Cause.Node >= 0 && int(rec.Cause.Node) < t.NumNodes() {
			g.Node = t.Node(rec.Cause.Node).Name
		}
		if rec.Cause.HasAtom {
			g.Atom = rec.Cause.Atom.String()
		}
		out.Groups = append(out.Groups, g)
	}
	return out
}

// findBox is the index of the box bound at n in net.Boxes, -1 when none is.
func findBox(net *core.Network, n topo.NodeID) int {
	return slices.IndexFunc(net.Boxes, func(b mbox.Instance) bool { return b.Node == n })
}

func nodeByName(t *topo.Topology, name string) (topo.NodeID, error) {
	n, ok := t.ByName(name)
	if !ok {
		return topo.NodeNone, fmt.Errorf("incr: no node named %q", name)
	}
	return n.ID, nil
}

// wireErr renders a netdesc codec error in the wire's voice. The field
// path is dropped: a wire change carries one invariant or one box, so the
// message alone locates the fault.
func wireErr(err error) error {
	var de *netdesc.Error
	if errors.As(err, &de) {
		return fmt.Errorf("incr: %s", de.Msg)
	}
	return err
}

// decodeChange resolves one wire change against net without writing to it.
func decodeChange(net *core.Network, w WireChange, edited map[topo.NodeID]mbox.Model) (Change, error) {
	switch w.Op {
	case "inv_add":
		if w.Invariant == nil {
			return Change{}, fmt.Errorf("incr: inv_add needs an invariant")
		}
		i, err := netdesc.BuildInvariant(net.Topo, w.Invariant)
		if err != nil {
			return Change{}, wireErr(err)
		}
		return AddInvariant(i), nil
	case "inv_remove":
		return RemoveInvariant(w.Name), nil
	case "node_down", "node_up", "relabel", "box_remove", "box_state", "fw_allow", "fw_deny", "fw_del":
		n, err := nodeByName(net.Topo, w.Node)
		if err != nil {
			return Change{}, err
		}
		return decodeNodeChange(net, w, n, edited)
	}
	return Change{}, fmt.Errorf("incr: unknown op %q", w.Op)
}

// decodeNodeChange decodes the ops that act on node n. edited holds the
// model each node has been given so far in the set: a firewall op edits a
// clone of that model (of the live one for the first op on a node), so
// successive ops on one node compose and every change carries its own
// model.
func decodeNodeChange(net *core.Network, w WireChange, n topo.NodeID, edited map[topo.NodeID]mbox.Model) (Change, error) {
	switch w.Op {
	case "node_down":
		return NodeDown(n), nil
	case "node_up":
		return NodeUp(n), nil
	case "relabel":
		return Relabel(n, w.Class), nil
	case "box_remove":
		return BoxRemove(n), nil
	case "box_state":
		if w.Box == nil {
			return Change{}, fmt.Errorf("incr: box_state needs a box")
		}
		model, err := netdesc.BuildBox(w.Node, w.Box, net.Registry)
		if err != nil {
			return Change{}, wireErr(err)
		}
		edited[n] = model
		return BoxSwap(n, model), nil
	}
	// The firewall ACL edits.
	model, ok := edited[n]
	if bi := findBox(net, n); !ok && bi >= 0 {
		model = net.Boxes[bi].Model
	}
	if model == nil {
		return Change{}, fmt.Errorf("incr: no middlebox model at %q", w.Node)
	}
	old, ok := model.(*mbox.LearningFirewall)
	if !ok {
		return Change{}, fmt.Errorf("incr: node %q is not a learning firewall", w.Node)
	}
	src, err := netdesc.ParsePrefix(w.Src)
	if err != nil {
		return Change{}, err
	}
	dst, err := netdesc.ParsePrefix(w.Dst)
	if err != nil {
		return Change{}, err
	}
	fw := &mbox.LearningFirewall{InstanceName: old.InstanceName, DefaultAllow: old.DefaultAllow}
	switch w.Op {
	case "fw_del": // remove every entry with these prefixes
		for _, e := range old.ACL {
			if e.Src != src || e.Dst != dst {
				fw.ACL = append(fw.ACL, e)
			}
		}
	case "fw_deny":
		fw.ACL = append([]mbox.ACLEntry{mbox.DenyEntry(src, dst)}, old.ACL...)
	default:
		fw.ACL = append([]mbox.ACLEntry{mbox.AllowEntry(src, dst)}, old.ACL...)
	}
	edited[n] = fw
	return BoxSwap(n, fw), nil
}

// DecodeChanges is the one decoder: every wire entry point, the
// apply_batch and propose envelopes and journal recovery resolve change
// lists here. "noop" entries vanish (an empty set is a cheap report
// refresh).
func DecodeChanges(net *core.Network, wires []WireChange) ([]Change, error) {
	var out []Change
	edited := map[topo.NodeID]mbox.Model{}
	for _, w := range wires {
		if w.Op == "noop" || w.Op == "" {
			continue
		}
		ch, err := decodeChange(net, w, edited)
		if err != nil {
			return nil, err
		}
		out = append(out, ch)
	}
	return out, nil
}

// DecodeChangeSet parses one wire line — a single change object or an
// array — into a change-set.
func DecodeChangeSet(net *core.Network, line []byte) ([]Change, error) {
	trimmed := strings.TrimSpace(string(line))
	if trimmed == "" {
		return nil, nil
	}
	var wires []WireChange
	if strings.HasPrefix(trimmed, "[") {
		if err := json.Unmarshal(line, &wires); err != nil {
			return nil, fmt.Errorf("incr: malformed change-set: %w", err)
		}
	} else {
		var w WireChange
		if err := json.Unmarshal(line, &w); err != nil {
			return nil, fmt.Errorf("incr: malformed change: %w", err)
		}
		wires = []WireChange{w}
	}
	return DecodeChanges(net, wires)
}

// DecodeProposeSet resolves a proposed change-set: a propose accepts
// every change-set an apply does.
func DecodeProposeSet(net *core.Network, wires []WireChange) ([]Change, error) {
	return DecodeChanges(net, wires)
}

// EncodeChange writes an applied change as the wire change that reproduces
// it: the inverse of the decoder and the journal's record format. A bind
// becomes box_state, carrying the bound model. ok=false means the change
// has no written form: a FIB provider, a model or invariant type outside
// the description format.
func EncodeChange(net *core.Network, ch Change) (w WireChange, ok bool) {
	name := func() string { return net.Topo.Node(ch.Node).Name }
	switch ch.Kind {
	case KindNodeDown:
		return WireChange{Op: "node_down", Node: name()}, true
	case KindNodeUp:
		return WireChange{Op: "node_up", Node: name()}, true
	case KindRelabel:
		return WireChange{Op: "relabel", Node: name(), Class: ch.Class}, true
	case KindBoxRemove:
		return WireChange{Op: "box_remove", Node: name()}, true
	case KindBoxReconfig:
		w = WireChange{Op: "box_state", Node: name()}
		var err error
		if w.Box, err = netdesc.ExportBox(w.Node, ch.Model, net.Registry); err != nil {
			return WireChange{}, false
		}
		return w, true
	case KindInvAdd:
		iv, err := netdesc.ExportInvariant(net.Topo, ch.Invariant)
		if err != nil {
			return WireChange{}, false
		}
		return WireChange{Op: "inv_add", Invariant: &iv}, true
	case KindInvRemove:
		return WireChange{Op: "inv_remove", Name: ch.Name}, true
	}
	return WireChange{}, false
}

// ParseRequest parses one wire line into its request envelope. Array
// lines (plain change-set batches) and blank lines return envelope=false
// and a zero request — decode those with DecodeChangeSet. ParseRequest
// validates JSON shape only; it never resolves names or mutates network
// state, so it is safe on untrusted input (the daemon and the decode fuzz
// target share it).
func ParseRequest(line []byte) (req WireRequest, envelope bool, err error) {
	trimmed := bytes.TrimSpace(line)
	if len(trimmed) == 0 || trimmed[0] == '[' {
		return WireRequest{}, false, nil
	}
	if err := json.Unmarshal(trimmed, &req); err != nil {
		return WireRequest{}, false, fmt.Errorf("incr: malformed request: %w", err)
	}
	return req, true, nil
}

// describeChange renders one change for repair suggestions.
func describeChange(t *topo.Topology, ch Change) string {
	switch ch.Kind {
	case KindInvAdd:
		if ch.Invariant != nil {
			return "inv-add " + ch.Invariant.Name()
		}
		return "inv-add"
	case KindInvRemove:
		return "inv-remove " + ch.Name
	case KindFIB:
		return "fib"
	}
	name := ""
	if ch.Node >= 0 && int(ch.Node) < t.NumNodes() {
		name = " " + t.Node(ch.Node).Name
	}
	return ch.Kind.String() + name
}

// EncodeProposeResult renders a Propose outcome on the wire; changes is
// the decoded change-set (for describing repair drops).
func EncodeProposeResult(t *topo.Topology, id string, changes []Change, pr *ProposeResult) WireProposeResult {
	out := WireProposeResult{
		Op:              "propose",
		Id:              id,
		Decision:        pr.Decision.String(),
		NewViolations:   pr.NewViolations,
		BudgetExceeded:  pr.BudgetExceeded,
		RefinedClean:    pr.RefinedClean,
		RepairTruncated: pr.RepairTruncated,
		Result:          EncodeResult(t, pr.Stats, pr.Reports),
	}
	for _, rp := range pr.Repairs {
		wr := WireRepair{Drop: append([]int(nil), rp.Drop...)}
		for _, i := range rp.Drop {
			if i >= 0 && i < len(changes) {
				wr.Ops = append(wr.Ops, describeChange(t, changes[i]))
			}
		}
		out.Repairs = append(out.Repairs, wr)
	}
	return out
}

// EncodeResult renders an Apply outcome on the wire.
func EncodeResult(t *topo.Topology, stats ApplyStats, reports []core.Report) WireResult {
	res := WireResult{
		Seq:             stats.Seq,
		Changes:         stats.Changes,
		Invariants:      stats.Invariants,
		Groups:          stats.Groups,
		DirtyGroups:     stats.DirtyGroups,
		DirtyInvariants: stats.DirtyInvariants,
		DirtyClasses:    stats.DirtyClasses,
		CanonShared:     stats.CanonShared,
		RefinedClean:    stats.RefinedClean,
		CacheHits:       stats.CacheHits,
		CanonHits:       stats.CanonHits,
		CacheMisses:     stats.CacheMisses,
		Enqueued:        stats.Enqueued,
		Coalesced:       stats.Coalesced,
		BudgetExceeded:  stats.BudgetExceeded,
		DurationNs:      stats.Duration.Nanoseconds(),
	}
	for _, r := range reports {
		wr := WireReport{
			Invariant:      r.Invariant.Name(),
			Outcome:        r.Result.Outcome.String(),
			Satisfied:      r.Satisfied,
			Engine:         r.Engine,
			SliceHosts:     r.SliceHosts,
			SliceBoxes:     r.SliceBoxes,
			Whole:          r.Whole,
			Reused:         r.Reused,
			Cached:         r.Cached,
			CanonShared:    r.CanonShared,
			BudgetExceeded: r.BudgetExceeded,
			DurationNs:     r.Duration.Nanoseconds(),
		}
		for _, n := range r.Scenario.Nodes() {
			wr.Scenario = append(wr.Scenario, t.Node(n).Name)
		}
		if !r.Satisfied {
			res.Unsatisfied++
		}
		res.Reports = append(res.Reports, wr)
	}
	return res
}
