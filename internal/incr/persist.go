package incr

// Session durability: every acked Apply/ApplyBatch/Commit appends its
// change-set to a CRC-framed write-ahead journal, and the full session
// state — topology mutations, invariant set, the verdict cache with its
// canonical renamings, and the client-request dedup map — snapshots
// periodically so recovery is snapshot + journal-suffix replay instead
// of a cold re-verify. The codec here is deliberately narrower than the
// Change type: only changes expressible in durable terms (named nodes,
// full middlebox state, wire-encodable invariants) are journaled; a
// change outside that set (a FIBFor closure, a custom model) poisons
// the journal with an explicit opaque tombstone so recovery degrades to
// a cold start rather than silently restoring a state that diverged.
// The recovery path additionally re-verifies a sampled subset of the
// restored verdicts against fresh solves before trusting the store —
// the invariant throughout is "never a wrong verdict": every failure
// mode (torn tail, corruption, config drift, opaque change, sample
// mismatch) is detected and lands on the cold-start path.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/fnv64"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/store"
	"github.com/netverify/vmn/internal/topo"
)

// PersistOptions configures session durability (Options.Persist; nil
// disables persistence entirely).
type PersistOptions struct {
	// Dir is the state directory (journal + snapshots). Created if
	// absent.
	Dir string
	// Sync is the journal fsync policy (store.SyncAlways default).
	Sync store.SyncPolicy
	// SnapshotEvery compacts the journal into a fresh snapshot after
	// this many records (0 = 64; < 0 disables periodic snapshots —
	// shutdown and recovery still snapshot).
	SnapshotEvery int
	// RecoverySample is how many restored groups are re-verified
	// against fresh solves before the restored verdicts are trusted
	// (0 = 2; < 0 disables sampling).
	RecoverySample int
}

func (po *PersistOptions) snapshotEvery() int {
	if po.SnapshotEvery == 0 {
		return 64
	}
	return po.SnapshotEvery
}

func (po *PersistOptions) recoverySample() int {
	if po.RecoverySample == 0 {
		return 2
	}
	if po.RecoverySample < 0 {
		return 0
	}
	return po.RecoverySample
}

// RecoveryStats describes what happened on session startup with
// persistence configured.
type RecoveryStats struct {
	// Enabled reports persistence was configured.
	Enabled bool
	// Recovered reports state was restored from the store.
	Recovered bool
	// ColdStart reports persistent state existed but was unusable —
	// the explicit degradation path. Reason says why.
	ColdStart bool
	Reason    string
	// SnapshotSeq is the sequence number the restored snapshot covered;
	// JournalRecords counts the journal-suffix records replayed on top.
	SnapshotSeq    int
	JournalRecords int
	// RecoveredGroups counts symmetry groups whose entire report set
	// was served from the restored verdict store on the recovery
	// verification (zero solves).
	RecoveredGroups int
	// ReverifiedOnRecovery counts the restored verdicts that were
	// re-checked against fresh solves before the store was trusted.
	ReverifiedOnRecovery int
	// SampleMismatch reports the re-verification sample disagreed with
	// the store: the restored cache was dropped and the session
	// re-verified cold.
	SampleMismatch bool
}

// PersistStatus is a point-in-time view of the persistence layer
// (the persist_status wire op).
type PersistStatus struct {
	Enabled        bool
	Dir            string
	Sync           store.SyncPolicy
	Seq            int
	SnapshotSeq    int
	JournalRecords int
	JournalBytes   int64
	AppliedIDs     int
	// Degraded, when non-empty, means journaling is disabled (an
	// unpersistable change or an I/O failure) and explains why; the
	// next restart will cold start.
	Degraded string
	Recovery RecoveryStats
}

// maxAppliedIDs bounds the client-request dedup map; the oldest ids (by
// apply sequence) are evicted beyond it.
const maxAppliedIDs = 4096

const (
	journalFile  = "journal.wal"
	snapshotFile = "snapshot.vmn"
)

// sessStore is the session's handle on its state directory. Access is
// serialized under Session.mu.
type sessStore struct {
	dir  string
	opts PersistOptions
	j    *store.Journal
	// cfg fingerprints the session's INITIAL configuration (options,
	// topology, and the constructor-time box/policy/invariant state) —
	// computed once in openStore, before any change mutates the
	// session. Snapshots carry it and recovery requires an exact match:
	// a store only transfers to a process that was started from the
	// same initial configuration, because journal replay re-derives the
	// mutable state from exactly that starting point. Hashing the
	// CURRENT state instead would be wrong twice over — snapshots taken
	// after an invariant or roster change would spuriously reject the
	// matching restart, and a genuinely different initial config could
	// coincidentally collide after drift.
	cfg uint64
	// snapSeq is the apply sequence the on-disk snapshot covers.
	snapSeq int
	// records counts journal records since the last snapshot.
	records int
	// degraded, when non-empty, disables all further persistence and
	// says why (opaque change, append failure). In-memory operation
	// continues unaffected.
	degraded string
}

func (st *sessStore) journalPath() string  { return filepath.Join(st.dir, journalFile) }
func (st *sessStore) snapshotPath() string { return filepath.Join(st.dir, snapshotFile) }

// journal record / snapshot wire forms ------------------------------------

// journalRecord is one applied (or committed) change-set. Op "opaque"
// is the poison tombstone for a change-set outside the durable codec.
type journalRecord struct {
	Seq     int             `json:"seq"`
	ID      string          `json:"id,omitempty"`
	Op      string          `json:"op,omitempty"`
	Changes []persistChange `json:"changes,omitempty"`
}

// persistChange is the durable form of one Change. Box reconfigurations
// are journaled as the box's full post-change state (op box_state), so
// replay does not depend on reproducing in-place mutations.
type persistChange struct {
	Op        string           `json:"op"`
	Node      string           `json:"node,omitempty"`
	Class     string           `json:"class,omitempty"`
	Name      string           `json:"name,omitempty"`
	Invariant *WireInvariant   `json:"inv,omitempty"`
	FW        *persistFirewall `json:"fw,omitempty"`
}

type persistFirewall struct {
	Name         string       `json:"name,omitempty"`
	DefaultAllow bool         `json:"default_allow,omitempty"`
	ACL          []persistACL `json:"acl,omitempty"`
}

type persistACL struct {
	Src   string `json:"src"`
	Dst   string `json:"dst"`
	Allow bool   `json:"allow,omitempty"`
}

type snapshotPayload struct {
	Version int    `json:"version"`
	Config  uint64 `json:"config"`
	Seq     int    `json:"seq"`
	// Down/Policy/Boxes/Invariants are the full mutable session state
	// relative to the network the caller rebuilds from its own
	// configuration (Config guards that the two match).
	Down       []string            `json:"down,omitempty"`
	Policy     map[string]string   `json:"policy,omitempty"`
	Boxes      []persistBox        `json:"boxes"`
	Invariants []WireInvariant     `json:"invariants"`
	Applied    map[string]int      `json:"applied,omitempty"`
	Cache      []persistCacheEntry `json:"cache,omitempty"`
}

// persistBox records one middlebox: firewalls serialize their full
// state; other models carry a config-key hash that must match the
// freshly built network's model (detecting configuration drift).
type persistBox struct {
	Node       string           `json:"node"`
	FW         *persistFirewall `json:"fw,omitempty"`
	ConfigHash uint64           `json:"config_hash,omitempty"`
}

// persistCacheEntry is one verdict-cache line, ordered oldest-first in
// the snapshot so restoring reproduces LRU recency.
type persistCacheEntry struct {
	Key []byte           `json:"k"`
	R   persistReport    `json:"r"`
	Ren *persistRenaming `json:"ren,omitempty"`
}

// persistReport keeps exactly the fields a cache hit reads: both hit
// paths overwrite Invariant/Scenario/Slice from the live group, so
// Outcome + witness + slice stats are the complete cached truth.
type persistReport struct {
	Outcome         int8           `json:"o"`
	Satisfied       bool           `json:"s,omitempty"`
	Engine          string         `json:"e,omitempty"`
	SliceHosts      int            `json:"sh,omitempty"`
	SliceBoxes      int            `json:"sb,omitempty"`
	Whole           bool           `json:"w,omitempty"`
	StatesExplored  int            `json:"se,omitempty"`
	SolverConflicts int64          `json:"sc,omitempty"`
	Trace           []persistEvent `json:"t,omitempty"`
}

type persistEvent struct {
	Kind    int8          `json:"k"`
	Src     int64         `json:"s"`
	Dst     int64         `json:"d"`
	Node    int64         `json:"n"`
	Hdr     persistHeader `json:"h"`
	Classes uint64        `json:"c,omitempty"`
}

type persistHeader struct {
	Src       uint32 `json:"s,omitempty"`
	Dst       uint32 `json:"d,omitempty"`
	SrcPort   uint16 `json:"sp,omitempty"`
	DstPort   uint16 `json:"dp,omitempty"`
	Proto     uint8  `json:"pr,omitempty"`
	Origin    uint32 `json:"o,omitempty"`
	ContentID uint32 `json:"c,omitempty"`
	Tunnel    uint32 `json:"tu,omitempty"`
}

// persistRenaming is a canonical renaming's inverse tables
// (slices.Renaming round-trips through ExportTables).
type persistRenaming struct {
	Nodes []int64         `json:"n,omitempty"`
	Addrs []uint32        `json:"a,omitempty"`
	Pfx   []persistPrefix `json:"p,omitempty"`
}

type persistPrefix struct {
	A uint32 `json:"a"`
	L int    `json:"l"`
}

// invariant / firewall codecs ----------------------------------------------

// EncodeInvariant is the inverse of DecodeInvariant: it renders a
// built-in invariant into its wire form. Custom invariant types return
// false — they are outside the durable codec (the persistence layer
// then degrades explicitly rather than guessing).
func EncodeInvariant(t *topo.Topology, i inv.Invariant) (*WireInvariant, bool) {
	addr := func(a pkt.Addr) string {
		if a == pkt.AddrNone {
			return ""
		}
		return a.String()
	}
	switch v := i.(type) {
	case inv.SimpleIsolation:
		return &WireInvariant{Type: "simple_isolation", Dst: t.Node(v.Dst).Name, SrcAddr: v.SrcAddr.String(), Label: v.Label}, true
	case inv.FlowIsolation:
		return &WireInvariant{Type: "flow_isolation", Dst: t.Node(v.Dst).Name, SrcAddr: v.SrcAddr.String(), Label: v.Label}, true
	case inv.Reachability:
		return &WireInvariant{Type: "reachability", Dst: t.Node(v.Dst).Name, SrcAddr: v.SrcAddr.String(), Label: v.Label}, true
	case inv.DataIsolation:
		return &WireInvariant{Type: "data_isolation", Dst: t.Node(v.Dst).Name, Origin: v.Origin.String(), Label: v.Label}, true
	case inv.Traversal:
		w := &WireInvariant{Type: "traversal", Dst: t.Node(v.Dst).Name, SrcPrefix: v.SrcPrefix.String(), SrcAddr: addr(v.SrcAddr), Label: v.Label}
		for _, via := range v.Vias {
			w.Vias = append(w.Vias, t.Node(via).Name)
		}
		return w, true
	}
	return nil, false
}

func encodeFirewall(fw *mbox.LearningFirewall) *persistFirewall {
	p := &persistFirewall{Name: fw.InstanceName, DefaultAllow: fw.DefaultAllow}
	for _, e := range fw.ACL {
		p.ACL = append(p.ACL, persistACL{Src: e.Src.String(), Dst: e.Dst.String(), Allow: e.Action == mbox.Allow})
	}
	return p
}

func decodeFirewall(p *persistFirewall) (*mbox.LearningFirewall, error) {
	fw := &mbox.LearningFirewall{InstanceName: p.Name, DefaultAllow: p.DefaultAllow}
	for _, e := range p.ACL {
		src, err := parsePrefix(e.Src)
		if err != nil {
			return nil, err
		}
		dst, err := parsePrefix(e.Dst)
		if err != nil {
			return nil, err
		}
		if e.Allow {
			fw.ACL = append(fw.ACL, mbox.AllowEntry(src, dst))
		} else {
			fw.ACL = append(fw.ACL, mbox.DenyEntry(src, dst))
		}
	}
	return fw, nil
}

// change-set codec ---------------------------------------------------------

// encodePersistChanges renders an APPLIED change-set into its durable
// form, reading post-change state from the live network (box_state).
// ok=false means the set contains a change outside the durable codec.
func (s *Session) encodePersistChanges(changes []Change) ([]persistChange, bool) {
	t := s.net.Topo
	out := make([]persistChange, 0, len(changes))
	for _, ch := range changes {
		switch ch.Kind {
		case KindNodeDown:
			out = append(out, persistChange{Op: "node_down", Node: t.Node(ch.Node).Name})
		case KindNodeUp:
			out = append(out, persistChange{Op: "node_up", Node: t.Node(ch.Node).Name})
		case KindRelabel:
			out = append(out, persistChange{Op: "relabel", Node: t.Node(ch.Node).Name, Class: ch.Class})
		case KindBoxRemove:
			out = append(out, persistChange{Op: "box_remove", Node: t.Node(ch.Node).Name})
		case KindBoxReconfig:
			bi := s.findBox(ch.Node)
			if bi < 0 {
				// The box was removed later in this same (applied)
				// change-set; the final state carries no trace of the
				// reconfiguration, so neither does the journal.
				continue
			}
			fw, ok := s.net.Boxes[bi].Model.(*mbox.LearningFirewall)
			if !ok {
				return nil, false
			}
			out = append(out, persistChange{Op: "box_state", Node: t.Node(ch.Node).Name, FW: encodeFirewall(fw)})
		case KindInvAdd:
			w, ok := EncodeInvariant(t, ch.Invariant)
			if !ok {
				return nil, false
			}
			out = append(out, persistChange{Op: "inv_add", Invariant: w})
		case KindInvRemove:
			out = append(out, persistChange{Op: "inv_remove", Name: ch.Name})
		default:
			// KindFIB (a closure) and KindBoxAdd (an arbitrary model)
			// have no durable form.
			return nil, false
		}
	}
	return out, true
}

// restoreScratch is the validated-but-not-installed recovery state:
// restore decodes snapshot + journal into it first and installs it
// atomically only if everything parsed, so a damaged store can never
// leave the session half-mutated.
type restoreScratch struct {
	down    map[topo.NodeID]bool
	policy  map[topo.NodeID]string
	boxes   []mbox.Instance
	invs    []inv.Invariant
	applied map[string]int
	cache   []restoredLine
	seq     int
	records int
}

type restoredLine struct {
	key    []byte
	report core.Report
	ren    *slices.Renaming
}

// replayChange applies one durable change to the scratch state,
// validating against the evolving scratch roster.
func (sc *restoreScratch) replayChange(t *topo.Topology, pc persistChange) error {
	node := func() (topo.NodeID, error) {
		n, ok := t.ByName(pc.Node)
		if !ok {
			return topo.NodeNone, fmt.Errorf("incr: journal names unknown node %q", pc.Node)
		}
		return n.ID, nil
	}
	switch pc.Op {
	case "node_down":
		n, err := node()
		if err != nil {
			return err
		}
		sc.down[n] = true
	case "node_up":
		n, err := node()
		if err != nil {
			return err
		}
		delete(sc.down, n)
	case "relabel":
		n, err := node()
		if err != nil {
			return err
		}
		if sc.policy == nil {
			sc.policy = map[topo.NodeID]string{}
		}
		if pc.Class == "" {
			delete(sc.policy, n)
		} else {
			sc.policy[n] = pc.Class
		}
	case "box_remove":
		n, err := node()
		if err != nil {
			return err
		}
		for i, b := range sc.boxes {
			if b.Node == n {
				sc.boxes = append(sc.boxes[:i], sc.boxes[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("incr: journal removes absent box at %q", pc.Node)
	case "box_state":
		n, err := node()
		if err != nil {
			return err
		}
		if pc.FW == nil {
			return fmt.Errorf("incr: box_state record without state")
		}
		fw, err := decodeFirewall(pc.FW)
		if err != nil {
			return err
		}
		for i, b := range sc.boxes {
			if b.Node == n {
				sc.boxes[i].Model = fw
				return nil
			}
		}
		return fmt.Errorf("incr: journal reconfigures absent box at %q", pc.Node)
	case "inv_add":
		if pc.Invariant == nil {
			return fmt.Errorf("incr: inv_add record without invariant")
		}
		i, err := DecodeInvariant(t, pc.Invariant)
		if err != nil {
			return err
		}
		sc.invs = append(sc.invs, i)
	case "inv_remove":
		kept := sc.invs[:0]
		for _, i := range sc.invs {
			if i.Name() != pc.Name {
				kept = append(kept, i)
			}
		}
		sc.invs = kept
	default:
		return fmt.Errorf("incr: unknown journal op %q", pc.Op)
	}
	return nil
}

// configHash fingerprints everything outside the store that verdicts
// depend on: solver options, scenarios, grouping/dirtying modes, and
// the initial network shape the caller rebuilds from its own
// configuration. A restored store whose hash differs was written by a
// differently configured session — its verdicts do not transfer.
func (s *Session) configHash() uint64 {
	b := []byte{1} // codec version
	put := func(vs ...int64) {
		for _, v := range vs {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
	}
	puts := func(ss ...string) {
		for _, v := range ss {
			put(int64(len(v)))
			b = append(b, v...)
		}
	}
	putb := func(vs ...bool) {
		for _, v := range vs {
			if v {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	o := s.opts
	put(int64(o.Engine), int64(o.MaxSends), o.Seed, int64(o.MaxConflicts), int64(o.MaxStates))
	put(int64(o.RandomBranchFreq))
	putb(o.NoSlices, o.NoSolverReuse, o.NoCanon, s.sopts.NoSymmetry, s.sopts.NodeGranularity)
	put(int64(len(o.Scenarios)))
	for _, sc := range o.Scenarios {
		puts(sc.Key())
	}
	t := s.net.Topo
	put(int64(t.NumNodes()))
	for i := 0; i < t.NumNodes(); i++ {
		n := t.Node(topo.NodeID(i))
		puts(n.Name)
		put(int64(n.Kind), int64(n.Addr))
	}
	put(int64(len(s.net.Boxes)))
	for _, bx := range s.net.Boxes {
		put(int64(bx.Node))
		puts(bx.Model.Type())
	}
	pol := make([]string, 0, len(s.net.PolicyClass))
	for n, c := range s.net.PolicyClass {
		pol = append(pol, fmt.Sprintf("%d=%s", n, c))
	}
	sort.Strings(pol)
	puts(pol...)
	put(int64(len(s.invs)))
	for _, i := range s.invs {
		puts(i.Name())
	}
	return fnv64.Sum(b)
}

// report / renaming codecs -------------------------------------------------

func encodeReport(r core.Report) persistReport {
	p := persistReport{
		Outcome:         int8(r.Result.Outcome),
		Satisfied:       r.Satisfied,
		Engine:          r.Engine,
		SliceHosts:      r.SliceHosts,
		SliceBoxes:      r.SliceBoxes,
		Whole:           r.Whole,
		StatesExplored:  r.Result.StatesExplored,
		SolverConflicts: r.Result.SolverConflicts,
	}
	for _, ev := range r.Result.Trace {
		p.Trace = append(p.Trace, persistEvent{
			Kind: int8(ev.Kind),
			Src:  int64(ev.Src), Dst: int64(ev.Dst), Node: int64(ev.Node),
			Hdr: persistHeader{
				Src: uint32(ev.Hdr.Src), Dst: uint32(ev.Hdr.Dst),
				SrcPort: uint16(ev.Hdr.SrcPort), DstPort: uint16(ev.Hdr.DstPort),
				Proto: uint8(ev.Hdr.Proto), Origin: uint32(ev.Hdr.Origin),
				ContentID: ev.Hdr.ContentID, Tunnel: uint32(ev.Hdr.Tunnel),
			},
			Classes: uint64(ev.Classes),
		})
	}
	return p
}

func decodeReport(p persistReport) core.Report {
	r := core.Report{
		Satisfied:  p.Satisfied,
		Engine:     p.Engine,
		SliceHosts: p.SliceHosts,
		SliceBoxes: p.SliceBoxes,
		Whole:      p.Whole,
		Result: inv.Result{
			Outcome:         inv.Outcome(p.Outcome),
			StatesExplored:  p.StatesExplored,
			SolverConflicts: p.SolverConflicts,
		},
	}
	for _, ev := range p.Trace {
		r.Result.Trace = append(r.Result.Trace, logic.Event{
			Kind: logic.EventKind(ev.Kind),
			Src:  topo.NodeID(ev.Src), Dst: topo.NodeID(ev.Dst), Node: topo.NodeID(ev.Node),
			Hdr: pkt.Header{
				Src: pkt.Addr(ev.Hdr.Src), Dst: pkt.Addr(ev.Hdr.Dst),
				SrcPort: pkt.Port(ev.Hdr.SrcPort), DstPort: pkt.Port(ev.Hdr.DstPort),
				Proto: pkt.Proto(ev.Hdr.Proto), Origin: pkt.Addr(ev.Hdr.Origin),
				ContentID: ev.Hdr.ContentID, Tunnel: pkt.Addr(ev.Hdr.Tunnel),
			},
			Classes: pkt.ClassSet(ev.Classes),
		})
	}
	return r
}

func encodeRenaming(ren *slices.Renaming) *persistRenaming {
	if ren == nil {
		return nil
	}
	nodes, addrs, pfxs := ren.ExportTables()
	p := &persistRenaming{Addrs: make([]uint32, len(addrs))}
	for _, n := range nodes {
		p.Nodes = append(p.Nodes, int64(n))
	}
	for i, a := range addrs {
		p.Addrs[i] = uint32(a)
	}
	for _, pf := range pfxs {
		p.Pfx = append(p.Pfx, persistPrefix{A: uint32(pf.Addr), L: pf.Len})
	}
	return p
}

func decodeRenaming(p *persistRenaming) *slices.Renaming {
	if p == nil {
		return nil
	}
	nodes := make([]topo.NodeID, len(p.Nodes))
	for i, n := range p.Nodes {
		nodes[i] = topo.NodeID(n)
	}
	addrs := make([]pkt.Addr, len(p.Addrs))
	for i, a := range p.Addrs {
		addrs[i] = pkt.Addr(a)
	}
	pfxs := make([]pkt.Prefix, len(p.Pfx))
	for i, pf := range p.Pfx {
		pfxs[i] = pkt.Prefix{Addr: pkt.Addr(pf.A), Len: pf.L}
	}
	return slices.NewRenamingFromTables(nodes, addrs, pfxs)
}

// snapshot assembly / restore ----------------------------------------------

// encodeSnapshot serializes the full current session state. ok=false
// means an invariant is outside the durable codec: the session then
// runs journal-only (correct but cold-cache recovery).
func (s *Session) encodeSnapshot() ([]byte, bool) {
	t := s.net.Topo
	snap := snapshotPayload{Version: 1, Config: s.store.cfg, Seq: s.seq}
	downNames := make([]string, 0, len(s.down))
	for n := range s.down {
		downNames = append(downNames, t.Node(n).Name)
	}
	sort.Strings(downNames)
	snap.Down = downNames
	if len(s.net.PolicyClass) > 0 {
		snap.Policy = make(map[string]string, len(s.net.PolicyClass))
		for n, c := range s.net.PolicyClass {
			snap.Policy[t.Node(n).Name] = c
		}
	}
	for _, bx := range s.net.Boxes {
		pb := persistBox{Node: t.Node(bx.Node).Name}
		if fw, ok := bx.Model.(*mbox.LearningFirewall); ok {
			pb.FW = encodeFirewall(fw)
		} else if ck, ok := bx.Model.(mbox.ConfigKeyer); ok {
			pb.ConfigHash = fnv64.Sum(ck.AppendConfigKey(nil))
		}
		snap.Boxes = append(snap.Boxes, pb)
	}
	for _, i := range s.invs {
		w, ok := EncodeInvariant(t, i)
		if !ok {
			return nil, false
		}
		snap.Invariants = append(snap.Invariants, *w)
	}
	if len(s.appliedIDs) > 0 {
		snap.Applied = make(map[string]int, len(s.appliedIDs))
		for id, seq := range s.appliedIDs {
			snap.Applied[id] = seq
		}
	}
	s.cmu.Lock()
	s.cache.exportOldestFirst(func(key []byte, r core.Report, ren *slices.Renaming) {
		if r.BudgetExceeded {
			return
		}
		snap.Cache = append(snap.Cache, persistCacheEntry{
			Key: append([]byte(nil), key...),
			R:   encodeReport(r),
			Ren: encodeRenaming(ren),
		})
	})
	s.cmu.Unlock()
	payload, err := json.Marshal(&snap)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// restoreState validates snapshot + journal-suffix into scratch state
// and installs it atomically. Any error leaves the session untouched
// (the caller degrades to a cold start).
func (s *Session) restoreState(snapRaw []byte, recs [][]byte) error {
	t := s.net.Topo
	sc := &restoreScratch{
		down:    map[topo.NodeID]bool{},
		boxes:   append([]mbox.Instance(nil), s.net.Boxes...),
		invs:    append([]inv.Invariant(nil), s.invs...),
		applied: map[string]int{},
	}
	if len(s.net.PolicyClass) > 0 {
		sc.policy = make(map[topo.NodeID]string, len(s.net.PolicyClass))
		for n, c := range s.net.PolicyClass {
			sc.policy[n] = c
		}
	}

	if snapRaw != nil {
		var snap snapshotPayload
		if err := json.Unmarshal(snapRaw, &snap); err != nil {
			return fmt.Errorf("incr: snapshot undecodable: %w", err)
		}
		if snap.Version != 1 {
			return fmt.Errorf("incr: snapshot version %d not supported", snap.Version)
		}
		if snap.Config != s.store.cfg {
			return fmt.Errorf("incr: snapshot was written under a different configuration")
		}
		for _, name := range snap.Down {
			n, ok := t.ByName(name)
			if !ok {
				return fmt.Errorf("incr: snapshot names unknown node %q", name)
			}
			sc.down[n.ID] = true
		}
		if snap.Policy != nil {
			sc.policy = make(map[topo.NodeID]string, len(snap.Policy))
			for name, c := range snap.Policy {
				n, ok := t.ByName(name)
				if !ok {
					return fmt.Errorf("incr: snapshot labels unknown node %q", name)
				}
				sc.policy[n.ID] = c
			}
		} else {
			sc.policy = nil
		}
		// The snapshot's box roster wins: boxes absent from it were
		// removed before the snapshot; listed boxes must match (or, for
		// firewalls, carry) the freshly built model.
		inRoster := map[topo.NodeID]persistBox{}
		for _, pb := range snap.Boxes {
			n, ok := t.ByName(pb.Node)
			if !ok {
				return fmt.Errorf("incr: snapshot names unknown box node %q", pb.Node)
			}
			inRoster[n.ID] = pb
		}
		kept := sc.boxes[:0]
		for _, bx := range sc.boxes {
			pb, ok := inRoster[bx.Node]
			if !ok {
				continue // removed before the snapshot
			}
			delete(inRoster, bx.Node)
			if pb.FW != nil {
				fw, err := decodeFirewall(pb.FW)
				if err != nil {
					return err
				}
				bx.Model = fw
			} else if pb.ConfigHash != 0 {
				ck, ok := bx.Model.(mbox.ConfigKeyer)
				if !ok || fnv64.Sum(ck.AppendConfigKey(nil)) != pb.ConfigHash {
					return fmt.Errorf("incr: box at %q differs from snapshotted configuration", pb.Node)
				}
			}
			kept = append(kept, bx)
		}
		sc.boxes = kept
		for n := range inRoster {
			return fmt.Errorf("incr: snapshot lists box at %q absent from the network", t.Node(n).Name)
		}
		sc.invs = sc.invs[:0]
		for i := range snap.Invariants {
			iv, err := DecodeInvariant(t, &snap.Invariants[i])
			if err != nil {
				return err
			}
			sc.invs = append(sc.invs, iv)
		}
		for id, seq := range snap.Applied {
			sc.applied[id] = seq
		}
		for _, e := range snap.Cache {
			sc.cache = append(sc.cache, restoredLine{key: e.Key, report: decodeReport(e.R), ren: decodeRenaming(e.Ren)})
		}
		sc.seq = snap.Seq
	}

	snapSeq := sc.seq
	prevSeq := sc.seq
	for _, raw := range recs {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("incr: journal record undecodable: %w", err)
		}
		if rec.Op == "opaque" {
			return fmt.Errorf("incr: journal contains a change outside the durable codec")
		}
		if rec.Seq <= snapSeq && prevSeq == snapSeq {
			// A record the snapshot already folded in (the crash landed
			// between snapshot write and journal compaction): skip.
			continue
		}
		if rec.Seq <= prevSeq {
			return fmt.Errorf("incr: journal sequence not increasing (%d after %d)", rec.Seq, prevSeq)
		}
		for _, pc := range rec.Changes {
			if err := sc.replayChange(t, pc); err != nil {
				return err
			}
		}
		if rec.ID != "" {
			sc.applied[rec.ID] = rec.Seq
		}
		prevSeq = rec.Seq
		sc.records++
	}
	sc.seq = prevSeq

	// Everything validated: install atomically.
	s.down = sc.down
	s.net.PolicyClass = sc.policy
	s.net.Boxes = sc.boxes
	s.invs = sc.invs
	s.appliedIDs = sc.applied
	s.trimAppliedIDs()
	s.seq = sc.seq
	s.cmu.Lock()
	for _, ln := range sc.cache {
		s.cache.put(ln.key, ln.report, ln.ren)
	}
	s.cmu.Unlock()
	s.recovery.Recovered = true
	s.recovery.JournalRecords = sc.records
	return nil
}

// store lifecycle -----------------------------------------------------------

// openStore opens the state directory, replays any persistent state
// into the session, and leaves the journal ready for appends. Damaged
// or mismatched state is moved aside and reported as an explicit cold
// start — never partially restored.
func (s *Session) openStore() error {
	po := *s.sopts.Persist
	if po.Dir == "" {
		return fmt.Errorf("incr: PersistOptions.Dir is required")
	}
	if err := os.MkdirAll(po.Dir, 0o755); err != nil {
		return err
	}
	st := &sessStore{dir: po.Dir, opts: po, cfg: s.configHash()}
	s.recovery = RecoveryStats{Enabled: true}

	degrade := func(reason string) error {
		s.recovery.ColdStart = true
		s.recovery.Reason = reason
		s.recovery.Recovered = false
		if st.j != nil {
			st.j.Close()
			st.j = nil
		}
		// Keep the damaged files for inspection, out of the replay path.
		for _, f := range []string{st.journalPath(), st.snapshotPath()} {
			if _, err := os.Stat(f); err == nil {
				os.Rename(f, f+".corrupt")
			}
		}
		j, _, err := store.OpenJournal(st.journalPath(), po.Sync)
		if err != nil {
			return err
		}
		st.j = j
		st.snapSeq = 0
		st.records = 0
		return nil
	}

	snapRaw, err := store.ReadSnapshot(st.snapshotPath())
	if err != nil {
		s.store = st
		return degrade(err.Error())
	}
	j, recs, err := store.OpenJournal(st.journalPath(), po.Sync)
	if err != nil {
		s.store = st
		return degrade(err.Error())
	}
	st.j = j
	st.records = len(recs)
	s.store = st

	if snapRaw == nil && len(recs) == 0 {
		return nil // fresh directory
	}
	if err := s.restoreState(snapRaw, recs); err != nil {
		return degrade(err.Error())
	}
	if snapRaw != nil {
		var snap snapshotPayload
		json.Unmarshal(snapRaw, &snap)
		st.snapSeq = snap.Seq
		s.recovery.SnapshotSeq = snap.Seq
	}
	return nil
}

// persistApply journals one acked change-set. Called under s.mu after
// the apply succeeded, before the caller acks. A change outside the
// durable codec poisons the store (opaque tombstone → cold restart); an
// append failure disables persistence and removes the stale store so a
// restart cold-starts instead of silently restoring a pre-failure state.
func (s *Session) persistApply(id string, changes []Change) {
	if id != "" {
		s.rememberID(id)
	}
	st := s.store
	if st == nil || st.degraded != "" {
		return
	}
	if len(changes) == 0 && id == "" {
		return // pure refresh: nothing to make durable
	}
	pcs, ok := s.encodePersistChanges(changes)
	if !ok {
		st.poison(s.seq)
		return
	}
	rec := journalRecord{Seq: s.seq, ID: id, Changes: pcs}
	payload, err := json.Marshal(&rec)
	if err != nil {
		st.fail(err)
		return
	}
	if err := st.j.Append(payload); err != nil {
		st.fail(err)
		return
	}
	st.records++
	if every := st.opts.snapshotEvery(); every > 0 && st.records >= every {
		s.snapshotLocked()
	}
}

// poison writes the opaque tombstone and disables further persistence:
// the durable state can no longer reach the live state by replay, and
// the tombstone makes recovery say so explicitly.
func (st *sessStore) poison(seq int) {
	rec := journalRecord{Seq: seq, Op: "opaque"}
	if payload, err := json.Marshal(&rec); err == nil {
		st.j.Append(payload)
	}
	st.degraded = "change-set outside the durable codec (fib provider, custom model, or custom invariant)"
}

// fail disables persistence after an I/O error and removes the store:
// a stale store that replays cleanly is indistinguishable from a
// current one, so the only safe restart is a cold one.
func (st *sessStore) fail(err error) {
	st.degraded = "persistence disabled: " + err.Error()
	if st.j != nil {
		st.j.Close()
		st.j = nil
	}
	os.Remove(st.journalPath())
	os.Remove(st.snapshotPath())
}

// snapshotLocked writes a fresh snapshot and compacts the journal.
// Called under s.mu.
func (s *Session) snapshotLocked() {
	st := s.store
	if st == nil || st.degraded != "" || st.j == nil {
		return
	}
	payload, ok := s.encodeSnapshot()
	if !ok {
		// Journal-only mode: recovery replays the whole journal against
		// the initial state (correct, cold cache).
		return
	}
	if err := store.WriteSnapshot(st.snapshotPath(), payload); err != nil {
		st.fail(err)
		return
	}
	st.snapSeq = s.seq
	if err := st.j.Reset(); err != nil {
		st.fail(err)
		return
	}
	st.records = 0
}

func (s *Session) rememberID(id string) {
	if s.appliedIDs == nil {
		s.appliedIDs = map[string]int{}
	}
	s.appliedIDs[id] = s.seq
	s.trimAppliedIDs()
}

func (s *Session) trimAppliedIDs() {
	if len(s.appliedIDs) <= maxAppliedIDs {
		return
	}
	type idSeq struct {
		id  string
		seq int
	}
	all := make([]idSeq, 0, len(s.appliedIDs))
	for id, seq := range s.appliedIDs {
		all = append(all, idSeq{id, seq})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	for _, e := range all[maxAppliedIDs:] {
		delete(s.appliedIDs, e.id)
	}
}

// recovery verification -----------------------------------------------------

// finishRecovery runs after the recovery Apply rebuilt the group
// entries from the restored cache: it counts fully restored groups and
// re-verifies a deterministic sample of them against fresh solves. A
// mismatch means the store lied (bit rot below the checksums, a codec
// bug): the restored cache is dropped and the session re-verifies cold.
// Returns the (possibly re-verified) report set.
func (s *Session) finishRecovery(reports []core.Report) ([]core.Report, error) {
	s.mu.Lock()
	for _, key := range s.keys {
		e := s.entries[key]
		if e == nil || len(e.reports) == 0 {
			continue
		}
		all := true
		for _, r := range e.reports {
			if !r.Cached {
				all = false
				break
			}
		}
		if all {
			s.recovery.RecoveredGroups++
		}
	}
	checked, ok := s.reverifySampleLocked(s.sopts.Persist.recoverySample())
	s.recovery.ReverifiedOnRecovery = checked
	if ok {
		s.mu.Unlock()
		return reports, nil
	}
	// Explicit degradation: drop every restored verdict and start cold.
	s.recovery.SampleMismatch = true
	s.recovery.RecoveredGroups = 0
	s.recovery.Reason = "restored verdicts failed re-verification"
	s.cmu.Lock()
	s.cache = newVerdictCache(s.sopts.CacheCap)
	s.cmu.Unlock()
	s.invalidate()
	s.mu.Unlock()
	return s.Apply(nil)
}

// reverifySampleLocked fresh-solves up to k groups (spread evenly
// across the key order) and compares outcome, satisfaction and witness
// against the restored reports. ok=false on any divergence or solve
// error.
func (s *Session) reverifySampleLocked(k int) (checked int, ok bool) {
	if k <= 0 || len(s.groups) == 0 {
		return 0, true
	}
	if k > len(s.groups) {
		k = len(s.groups)
	}
	scens := s.effectiveScenarios()
	stride := len(s.groups) / k
	for i := 0; i < k; i++ {
		gi := i * stride
		e := s.entries[s.keys[gi]]
		if e == nil || len(e.reports) != len(scens) {
			return checked, false
		}
		gp, err := s.planGroup(s.groups[gi].Representative, scens, s.engs)
		if err != nil {
			return checked, false
		}
		for si := range scens {
			fresh, err := s.verifier.VerifyPlanned(gp.plans[si])
			if err != nil {
				return checked, false
			}
			checked++
			stored := e.reports[si]
			if fresh.Result.Outcome != stored.Result.Outcome || fresh.Satisfied != stored.Satisfied || !sameTrace(fresh.Result.Trace, stored.Result.Trace) {
				return checked, false
			}
		}
	}
	return checked, true
}

func sameTrace(a, b []logic.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// public surface -------------------------------------------------------------

// Recovery returns the startup recovery statistics (zero when
// persistence is disabled).
func (s *Session) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// PersistStatus reports the persistence layer's current state.
func (s *Session) PersistStatus() PersistStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := PersistStatus{Recovery: s.recovery, Seq: s.seq, AppliedIDs: len(s.appliedIDs)}
	st := s.store
	if st == nil {
		return ps
	}
	ps.Enabled = true
	ps.Dir = st.dir
	ps.Sync = st.opts.Sync
	ps.SnapshotSeq = st.snapSeq
	ps.JournalRecords = st.records
	ps.Degraded = st.degraded
	if st.j != nil {
		ps.JournalBytes = st.j.Size()
	}
	return ps
}

// IsApplied reports whether a client request id was already applied —
// the pre-decode dedup gate for at-least-once wire clients (wire
// decoding mutates firewalls in place, so the daemon must detect a
// duplicate before decoding it a second time).
func (s *Session) IsApplied(id string) bool {
	if id == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.appliedIDs[id]
	return ok
}

// CurrentReports returns the current full report set without applying
// anything (the ack body for a deduplicated request).
func (s *Session) CurrentReports() []core.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.assemble(s.effectiveScenarios())
}

// Shutdown flushes the journal, writes a final snapshot (compacting the
// journal), and closes the store. The session remains usable in-memory,
// but further changes are no longer persisted. Idempotent.
func (s *Session) Shutdown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.store
	if st == nil {
		return nil
	}
	if st.degraded == "" {
		s.snapshotLocked()
	}
	s.store = nil
	if st.j != nil {
		return st.j.Close()
	}
	return nil
}
