package incr

// Session durability: every acked Apply/ApplyBatch/Commit appends its
// change-set to a CRC-framed write-ahead journal, and a snapshot — the
// coalesced change-set since the configuration the process was started
// from, plus the verdict cache with its canonical renamings and the
// client-request dedup set — replaces the journal periodically, so
// recovery is snapshot + journal-suffix replay instead of a cold
// re-verify. Journal records and the snapshot's state are both wire
// change-sets (EncodeChange writes each change as the WireChange that
// reproduces it, netdesc spells box state and invariants, and the snapshot
// reuses the bytes each change was journaled as), and recovery runs both
// through the wire decoder and Session.mutate, the path every live change
// takes. A change with no written form (a FIBFor closure, a
// custom model or invariant) poisons the journal with an
// explicit opaque tombstone so recovery degrades to a cold start rather
// than silently restoring a state that diverged.
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
	"strconv"
	"strings"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/fnv64"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/lru"
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
}

func (po *PersistOptions) snapshotEvery() int {
	if po.SnapshotEvery == 0 {
		return 64
	}
	return po.SnapshotEvery
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

// appliedIDsCap bounds the client-request dedup set (DESIGN.md, "Bounded
// memory"); the set maps each id to its entry in a snapshot's applied
// object, `"<id>":<the apply sequence that acked it>`, written once.
const appliedIDsCap = 4096

func newAppliedIDs() *lru.Cache[string, []byte] { return lru.New[string, []byte](appliedIDsCap, nil) }

// putID remembers id as acked by the apply at seq.
func putID(applied *lru.Cache[string, []byte], id string, seq int) {
	applied.Put(id, strconv.AppendInt(append(appendJSONString(nil, id), ':'), int64(seq), 10))
}

// reverifyGroups is how many restored groups are re-verified against
// fresh solves before the restored verdicts are trusted.
const reverifyGroups = 2

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
	// initial names the invariants of that configuration: removing one of
	// them is the only inv_remove a snapshot has to remember.
	initial map[string]bool
	// conf holds what that configuration has at each node the log names,
	// noted before the node's first change: the log is coalesced from there.
	conf map[topo.NodeID]configured
	// log is the change-set that takes that configuration to the current
	// durable state, raw the bytes each change was journaled as: every
	// change journaled since, compacted whenever it has doubled past
	// compacted, its length after the last compaction — so it follows the
	// elements that differ from the configuration, not uptime. A snapshot
	// is raw, written out.
	log       []Change
	raw       [][]byte
	compacted int
	// snapSeq is the apply sequence the on-disk snapshot covers.
	snapSeq int
	// records counts journal records since the last snapshot.
	records int
	// degraded, when non-empty, disables all further persistence and
	// says why (opaque change, append failure). In-memory operation
	// continues unaffected.
	degraded string
}

// configured is what the configuration has at a node: its class-map entry
// and the model bound there (nil: none).
type configured struct {
	class   string
	classed bool
	box     mbox.Model
}

// note records what the configuration has at ch's node, unless it is
// noted already. mutate calls it before it installs ch, so what it reads is
// the configuration's: the log names every node a change moved away from it.
func (st *sessStore) note(net *core.Network, ch Change) {
	if _, ok := st.conf[ch.Node]; ok || ch.Kind != KindRelabel && ch.Kind != KindBoxRemove && ch.Kind != KindBoxReconfig {
		return
	}
	var c configured
	c.class, c.classed = net.PolicyClass[ch.Node]
	if bi := findBox(net, ch.Node); bi >= 0 {
		c.box = net.Boxes[bi].Model
	}
	st.conf[ch.Node] = c
}

func (st *sessStore) journalPath() string  { return filepath.Join(st.dir, journalFile) }
func (st *sessStore) snapshotPath() string { return filepath.Join(st.dir, snapshotFile) }

// journal record / snapshot wire forms ------------------------------------

// journalRecord is one applied (or committed) change-set, in the wire's
// vocabulary, each change kept as the bytes it was written as. Op "opaque"
// is the poison tombstone for a change-set with no written form.
type journalRecord struct {
	Seq     int               `json:"seq"`
	ID      string            `json:"id,omitempty"`
	Op      string            `json:"op,omitempty"`
	Changes []json.RawMessage `json:"changes,omitempty"`
}

// snapshotPayload is record zero of a recovery: its change-set takes the
// network the caller rebuilds from its own configuration (Config guards
// that it is the one the writer started from) to the state at Seq.
// Applied maps each remembered request id to the apply sequence that acked
// it. encodeSnapshot writes the same fields.
type snapshotPayload struct {
	Version int            `json:"version"`
	Config  uint64         `json:"config"`
	Applied map[string]int `json:"applied,omitempty"`
	journalRecord
	Cache []persistCacheEntry `json:"cache,omitempty"`
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
	Outcome         int8          `json:"o"`
	Satisfied       bool          `json:"s,omitempty"`
	Engine          string        `json:"e,omitempty"`
	SliceHosts      int           `json:"sh,omitempty"`
	SliceBoxes      int           `json:"sb,omitempty"`
	Whole           bool          `json:"w,omitempty"`
	StatesExplored  int           `json:"se,omitempty"`
	SolverConflicts int64         `json:"sc,omitempty"`
	Trace           []logic.Event `json:"t,omitempty"`
}

// persistRenaming is a canonical renaming's inverse tables
// (slices.Renaming round-trips through ExportTables).
type persistRenaming struct {
	Nodes []topo.NodeID `json:"n,omitempty"`
	Addrs []pkt.Addr    `json:"a,omitempty"`
	Pfx   []pkt.Prefix  `json:"p,omitempty"`
}

// configHash fingerprints everything outside the store that verdicts
// depend on: solver options, scenarios, the grouping mode, and the whole
// initial network the caller rebuilds from its own configuration. A store
// whose hash differs was written by a differently configured session: its
// verdicts do not transfer, and its journal would replay onto a network it
// was not written for.
func (s *Session) configHash() uint64 {
	// codec version: 6 = 5 plus links, forwarding rules, box configurations
	// and invariant slots; 5 = core.Options.AppendVerdictKey without the
	// solver seed, random-branch frequency and explicit-state budget
	o, t := s.opts, s.net.Topo
	k := mbox.Key{B: o.AppendVerdictKey([]byte{6})}
	mbox.PutString(&k, fmt.Sprint(o.NoSolverReuse, o.NoCanon, s.sopts.NoSymmetry))
	k.Uint(uint64(len(o.Scenarios)))
	for _, sc := range o.Scenarios {
		mbox.PutString(&k, sc.Key())
	}
	fib := s.net.FIBFor(topo.NoFailures())
	k.Uint(uint64(t.NumNodes()))
	for _, n := range t.Nodes() {
		mbox.PutString(&k, n.Name)
		k.Uint(uint64(n.Kind))
		k.Addr(n.Addr)
		mbox.PutString(&k, s.net.PolicyClass[n.ID]) // "" is a singleton
		k.Uint(uint64(len(t.Neighbors(n.ID))))
		for _, m := range t.Neighbors(n.ID) {
			k.Node(m)
		}
		k.Uint(uint64(len(fib[n.ID])))
		for _, r := range fib[n.ID] {
			k.Prefix(r.Match)
			k.Node(r.In)
			k.Node(r.Out)
			k.Uint(uint64(r.Priority))
		}
	}
	k.Uint(uint64(len(s.net.Boxes)))
	var cfg []byte
	for _, bx := range s.net.Boxes {
		k.Node(bx.Node)
		mbox.PutString(&k, bx.Model.Type())
		// Empty for a model without a configuration description.
		cfg, _ = mbox.ExactKey(cfg[:0], bx.Model)
		k.Opaque(cfg)
	}
	k.Uint(uint64(len(s.invs)))
	for _, m := range s.invs {
		mbox.PutString(&k, m.inv.Name())
		if si, ok := m.inv.(inv.Slotted); ok {
			si.Slots(&k) // never empty: a type tag comes first
		} else {
			k.Byte(0)
		}
	}
	return fnv64.Sum(k.B)
}

// report / renaming codecs -------------------------------------------------

func encodeReport(r core.Report) persistReport {
	return persistReport{
		Outcome:         int8(r.Result.Outcome),
		Satisfied:       r.Satisfied,
		Engine:          r.Engine,
		SliceHosts:      r.SliceHosts,
		SliceBoxes:      r.SliceBoxes,
		Whole:           r.Whole,
		StatesExplored:  r.Result.StatesExplored,
		SolverConflicts: r.Result.SolverConflicts,
		Trace:           r.Result.Trace,
	}
}

func decodeReport(p persistReport) core.Report {
	return core.Report{
		Satisfied:  p.Satisfied,
		Engine:     p.Engine,
		SliceHosts: p.SliceHosts,
		SliceBoxes: p.SliceBoxes,
		Whole:      p.Whole,
		Result: inv.Result{
			Outcome:         inv.Outcome(p.Outcome),
			StatesExplored:  p.StatesExplored,
			SolverConflicts: p.SolverConflicts,
			Trace:           p.Trace,
		},
	}
}

func encodeRenaming(ren *slices.Renaming) *persistRenaming {
	if ren == nil {
		return nil
	}
	nodes, addrs, pfxs := ren.ExportTables()
	return &persistRenaming{Nodes: nodes, Addrs: addrs, Pfx: pfxs}
}

func decodeRenaming(p *persistRenaming) *slices.Renaming {
	if p == nil {
		return nil
	}
	return slices.NewRenamingFromTables(p.Nodes, p.Addrs, p.Pfx)
}

// snapshot assembly / restore ----------------------------------------------

// compact rewrites the log as the shortest change-set Coalesce and the
// configuration allow. The configuration licenses four deletions: a
// surviving node_up is its node's last liveness writer and every node
// starts up; a surviving inv_remove has no earlier add of its name left, so
// it matters only if the configuration had one; a surviving relabel to the
// node's configured class, and a surviving bind of the configured model
// (same type, same exact key) at a node no surviving unbind left — a bind
// after one puts the box last in the list, and that order must replay —
// leave the node as configured.
func (st *sessStore) compact() {
	log, from := Coalesce(st.log, func(n topo.NodeID) bool { return st.conf[n].box != nil })
	kept, raw, conf, unbound := log[:0], st.raw[:0], map[topo.NodeID]configured{}, map[topo.NodeID]bool{}
	for i, ch := range log {
		c, noted := st.conf[ch.Node]
		if ch.Kind == KindBoxRemove {
			unbound[ch.Node] = true
		}
		if ch.Kind == KindNodeUp || ch.Kind == KindInvRemove && !st.initial[ch.Name] ||
			ch.Kind == KindRelabel && c.classed && ch.Class == c.class ||
			ch.Kind == KindBoxReconfig && !unbound[ch.Node] && sameConfig(ch.Model, c.box) {
			continue
		}
		if noted {
			conf[ch.Node] = c
		}
		kept, raw = append(kept, ch), append(raw, st.raw[from[i]])
	}
	clear(st.raw[len(raw):])
	st.log, st.raw, st.conf, st.compacted = kept, raw, conf, len(kept)
}

// sameConfig reports whether a and b are models of one type with equal
// exact configuration keys (a model without a description equals none).
func sameConfig(a, b mbox.Model) bool {
	if a == nil || b == nil || a.Type() != b.Type() {
		return false
	}
	ka, okA := mbox.ExactKey(nil, a)
	kb, okB := mbox.ExactKey(nil, b)
	return okA && okB && string(ka) == string(kb)
}

// encodeSnapshot writes the compacted log's journaled bytes, the dedup set
// oldest first and the verdict store as snapshotPayload's fields, in parts
// whose concatenation is the payload: the verdict store, the largest, is
// not copied again.
func (s *Session) encodeSnapshot() [][]byte {
	st := s.store
	st.compact()
	b := fmt.Appendf(nil, `{"version":2,"config":%d`, st.cfg)
	sep := `,"applied":{`
	s.appliedIDs.Walk(func(_ string, entry []byte) bool {
		b, sep = append(append(b, sep...), entry...), ","
		return true
	})
	if sep == "," {
		b = append(b, '}')
	}
	b = appendRecord(strconv.AppendInt(append(b, `,"seq":`...), int64(s.seq), 10), "", st.raw)
	var cache []persistCacheEntry
	s.cmu.Lock()
	// Oldest first, so re-putting the entries in order on restore
	// reproduces the recency order.
	s.cache.Walk(func(key string, l cacheLine) bool {
		if !l.report.BudgetExceeded {
			cache = append(cache, persistCacheEntry{
				Key: []byte(key),
				R:   encodeReport(l.report),
				Ren: encodeRenaming(l.ren),
			})
		}
		return true
	})
	s.cmu.Unlock()
	if len(cache) == 0 {
		return [][]byte{append(b, '}')}
	}
	c, _ := json.Marshal(cache) // integers, strings, booleans and bytes only
	return [][]byte{append(b, `,"cache":`...), c, []byte("}")}
}

// appendRecord appends a journal record's fields after its seq: the
// request id when there is one, then the change-set from each change's
// journaled bytes, as encoding/json writes journalRecord.
func appendRecord(b []byte, id string, changes [][]byte) []byte {
	if id != "" {
		b = appendJSONString(append(b, `,"id":`...), id)
	}
	sep := `,"changes":[`
	for _, raw := range changes {
		b = append(append(b, sep...), raw...)
		sep = ","
	}
	if len(changes) > 0 {
		b = append(b, ']')
	}
	return b
}

// restoreState rebuilds the persisted session state over the freshly
// built one, as one transaction (the caller runs it through transact, and
// degrades to a cold start when it fails). The snapshot's change-set is
// record zero; it and each journal record are decoded by the wire decoder
// and installed by mutate, exactly as when first applied.
func (s *Session) restoreState(snapRaw []byte, recs [][]byte) error {
	var snap snapshotPayload // stays zero without a snapshot
	if snapRaw != nil {
		if err := json.Unmarshal(snapRaw, &snap); err != nil {
			return fmt.Errorf("incr: snapshot undecodable: %w", err)
		}
		if snap.Version != 2 {
			return fmt.Errorf("incr: snapshot version %d not supported", snap.Version)
		}
		if snap.Config != s.store.cfg {
			return fmt.Errorf("incr: snapshot was written under a different configuration or codec version")
		}
	}
	// The snapshot's ids enter oldest first, then the journal's in order.
	applied := newAppliedIDs()
	ids := make([]string, 0, len(snap.Applied))
	for id := range snap.Applied {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := snap.Applied[ids[i]], snap.Applied[ids[j]]
		return a < b || a == b && ids[i] < ids[j]
	})
	for _, id := range ids {
		putID(applied, id, snap.Applied[id])
	}
	records := make([]journalRecord, 1+len(recs))
	records[0] = snap.journalRecord
	for i, raw := range recs {
		if err := json.Unmarshal(raw, &records[1+i]); err != nil {
			return fmt.Errorf("incr: journal record undecodable: %w", err)
		}
	}

	var log []Change
	var raw [][]byte
	prevSeq, replayed := snap.Seq, 0
	for i, rec := range records {
		if rec.Op == "opaque" {
			return fmt.Errorf("incr: journal contains a change outside the durable codec")
		}
		if i > 0 {
			if rec.Seq <= snap.Seq && prevSeq == snap.Seq {
				// A record the snapshot already folded in (the crash landed
				// between snapshot write and journal compaction): skip.
				continue
			}
			if rec.Seq <= prevSeq {
				return fmt.Errorf("incr: journal sequence not increasing (%d after %d)", rec.Seq, prevSeq)
			}
			replayed++
		}
		changes, raws, err := s.decodeLogged(rec.Changes)
		if err == nil {
			err = s.validate(changes)
		}
		if err != nil {
			return fmt.Errorf("incr: change-set at seq %d does not replay: %w", rec.Seq, err)
		}
		s.mutate(changes, newImpact())
		log, raw = append(log, changes...), append(raw, raws...)
		if rec.ID != "" {
			putID(applied, rec.ID, rec.Seq)
		}
		prevSeq = rec.Seq
	}

	s.seq = prevSeq
	s.appliedIDs = applied
	s.cmu.Lock()
	for _, e := range snap.Cache {
		s.cache.Put(string(e.Key), cacheLine{decodeReport(e.R), decodeRenaming(e.Ren)})
	}
	s.cmu.Unlock()
	s.store.log, s.store.raw = log, raw
	s.store.snapSeq = snap.Seq
	s.recovery.Recovered = true
	s.recovery.SnapshotSeq = snap.Seq
	s.recovery.JournalRecords = replayed
	return nil
}

// decodeLogged decodes a record's change-set one entry at a time and pairs
// each change with the bytes it was written as — save a firewall edit's:
// what it means depends on the changes before it, which compaction may
// drop, so it is kept as the box_state it resolved to.
func (s *Session) decodeLogged(entries []json.RawMessage) ([]Change, [][]byte, error) {
	wires, raws := make([]WireChange, 0, len(entries)), make([][]byte, 0, len(entries))
	for _, e := range entries {
		var w WireChange
		if err := json.Unmarshal(e, &w); err != nil {
			return nil, nil, err
		}
		if w.Op != "noop" && w.Op != "" { // DecodeChanges drops these
			wires, raws = append(wires, w), append(raws, e)
		}
	}
	changes, err := DecodeChanges(s.net, wires)
	for i, ch := range changes { // one per wire
		if strings.HasPrefix(wires[i].Op, "fw_") {
			w, _ := EncodeChange(s.net, ch) // a learning firewall always has one
			raws[i], _ = json.Marshal(&w)
		}
	}
	return changes, raws, err
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
	st := &sessStore{dir: po.Dir, opts: po, cfg: s.configHash(), initial: make(map[string]bool, len(s.invs)), conf: map[topo.NodeID]configured{}}
	for _, m := range s.invs {
		st.initial[m.inv.Name()] = true
	}
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
	if _, err := s.transact(false, func() error { return s.restoreState(snapRaw, recs) }); err != nil {
		return degrade(err.Error())
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
	raws := make([][]byte, len(changes))
	for i, ch := range changes {
		w, ok := EncodeChange(s.net, ch)
		if !ok {
			st.poison(s.seq)
			return
		}
		raws[i], _ = json.Marshal(&w) // strings, booleans and lists of them only
	}
	if err := st.j.Append(append(appendRecord(fmt.Appendf(nil, `{"seq":%d`, s.seq), id, raws), '}')); err != nil {
		st.fail(err)
		return
	}
	st.records++
	st.log, st.raw = append(st.log, changes...), append(st.raw, raws...)
	if every := st.opts.snapshotEvery(); every > 0 && st.records >= every {
		s.snapshotLocked()
	} else if len(st.log) >= 2*max(st.compacted, 32) {
		st.compact()
	}
}

// poison writes the opaque tombstone and disables further persistence:
// the durable state can no longer reach the live state by replay, and
// the tombstone makes recovery say so explicitly.
func (st *sessStore) poison(seq int) {
	st.j.Append(fmt.Appendf(nil, `{"seq":%d,"op":"opaque"}`, seq))
	st.degraded = "change-set outside the durable codec (fib provider, custom model or custom invariant)"
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
	if err := store.WriteSnapshot(st.snapshotPath(), s.encodeSnapshot()...); err != nil {
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

func (s *Session) rememberID(id string) { putID(s.appliedIDs, id, s.seq) }

// recovery verification -----------------------------------------------------

// finishRecovery runs after the recovery Apply rebuilt the group
// entries from the restored cache: it counts fully restored groups and
// re-verifies a deterministic sample of them against fresh solves. A
// mismatch means the store lied (bit rot below the checksums, a codec
// bug): the restored cache is dropped and the session re-verifies cold.
// Returns the (possibly re-verified) report set.
func (s *Session) finishRecovery(reports []core.Report) ([]core.Report, error) {
	s.mu.Lock()
	for _, sl := range s.table.order {
		e := s.table.recs[sl].entry
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
	checked, ok := s.reverifySampleLocked()
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
	s.cache = newVerdictCache()
	s.cmu.Unlock()
	s.table, s.needFull = newGroupTable(), true
	s.mu.Unlock()
	return s.Apply(nil)
}

// reverifySampleLocked fresh-solves up to reverifyGroups groups (spread
// evenly across the key order) and compares outcome, satisfaction and
// witness against the restored reports. ok=false on any divergence or
// solve error.
func (s *Session) reverifySampleLocked() (checked int, ok bool) {
	order := s.table.order
	k := min(reverifyGroups, len(order))
	if k == 0 {
		return 0, true
	}
	scens := s.effectiveScenarios()
	stride := len(order) / k
	for i := 0; i < k; i++ {
		rec := &s.table.recs[order[i*stride]]
		e := rec.entry
		if e == nil || len(e.reports) != len(scens) {
			return checked, false
		}
		gp, err := s.planGroup(rec.members[0].inv, scens, s.engs)
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
	ps := PersistStatus{Recovery: s.recovery, Seq: s.seq, AppliedIDs: s.appliedIDs.Len()}
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

// IsApplied reports whether a client request id was already applied: the
// daemon acks a replayed id before looking at its body, which may no
// longer decode against the state the first delivery produced.
func (s *Session) IsApplied(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayed(id)
}

// replayed reports whether id was already applied; an empty id never was.
func (s *Session) replayed(id string) bool {
	_, ok := s.appliedIDs.Peek(id)
	return id != "" && ok
}

// CurrentReports returns the current full report set without applying
// anything.
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
