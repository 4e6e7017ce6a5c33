package incr_test

// Durability unit tests: warm restart serves every verdict from the
// restored store (zero solves), client request ids dedup across
// restarts, and every damage mode — corrupt journal, configuration
// drift, unpersistable changes — degrades to an EXPLICIT cold start
// with correct (freshly computed) verdicts, never a silent partial
// restore. The kill-mid-churn differential harness lives in
// crash_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/store"
	"github.com/netverify/vmn/internal/topo"
)

func newPersistDC(t *testing.T, sopts incr.Options) (*bench.Datacenter, *incr.Session, []core.Report) {
	t.Helper()
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	sess, reports, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, d.AllIsolationInvariants(), sopts)
	if err != nil {
		t.Fatal(err)
	}
	return d, sess, reports
}

func persistOpts(dir string) incr.Options {
	return incr.Options{Persist: &incr.PersistOptions{Dir: dir}}
}

// A warm restart on an unchanged network must re-verify nothing: every
// group is served from the restored verdict store — zero cache misses,
// zero solves — with reports and witnesses identical to the session
// that shut down.
func TestWarmRestartZeroSolves(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	// Mutate so the snapshot covers non-initial state too.
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Apply([]incr.Change{incr.NodeUp(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	want := s1.CurrentReports()
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	_, s2, got := newPersistDC(t, persistOpts(dir))
	rec := s2.Recovery()
	if !rec.Enabled || !rec.Recovered || rec.ColdStart {
		t.Fatalf("recovery = %+v, want recovered warm start", rec)
	}
	if rec.RecoveredGroups == 0 {
		t.Fatalf("recovery restored no groups: %+v", rec)
	}
	if rec.ReverifiedOnRecovery == 0 || rec.SampleMismatch {
		t.Fatalf("recovery sample: %+v", rec)
	}
	if st := s2.LastApply(); st.CacheMisses != 0 {
		t.Fatalf("warm restart missed the cache %d times: %+v", st.CacheMisses, st)
	}
	if tot := s2.TotalStats(); tot.Solves != 0 {
		t.Fatalf("warm restart re-solved %d times", tot.Solves)
	}
	compareReports(t, "warm-restart", got, want)
	compareWitnesses(t, "warm-restart", got, want)

	// The restored session keeps verifying correctly.
	reports, err := s2.Apply([]incr.Change{incr.NodeDown(d1.Hosts[1][0])})
	if err != nil {
		t.Fatal(err)
	}
	base := baseline(t, s2, core.Options{Engine: core.EngineSAT}, true)
	compareReports(t, "post-restart-apply", reports, base)
}

// Client request ids must deduplicate within a process and across a
// restart (at-least-once wire clients replay unacked requests).
func TestAppliedIDsDedupAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	if _, dup, err := s1.ApplyID("req-1", []incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil || dup {
		t.Fatal(dup, err)
	}
	want := s1.CurrentReports()
	// Same id again: not re-applied.
	got, dup, err := s1.ApplyID("req-1", []incr.Change{incr.NodeDown(d1.Hosts[1][0])})
	if err != nil || !dup {
		t.Fatalf("dup=%v err=%v", dup, err)
	}
	compareReports(t, "in-process-dup", got, want)
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	d2, s2, _ := newPersistDC(t, persistOpts(dir))
	if !s2.IsApplied("req-1") {
		t.Fatal("req-1 forgotten across restart")
	}
	got, dup, err = s2.ApplyID("req-1", []incr.Change{incr.NodeDown(d2.Hosts[1][0])})
	if err != nil || !dup {
		t.Fatalf("after restart: dup=%v err=%v", dup, err)
	}
	compareReports(t, "cross-restart-dup", got, want)
	if s2.IsApplied("req-2") {
		t.Fatal("unknown id reported applied")
	}
}

// A corrupt journal record (bit flip inside a complete record) must be
// DETECTED: recovery reports an explicit cold start, the damaged files
// move aside, and the session serves the freshly built network's
// verdicts — the one outcome that can never happen is a silent restore
// of a diverged state.
func TestCorruptJournalExplicitColdStart(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	// Disable periodic snapshots so the records stay in the journal,
	// then remove the startup snapshot to force journal replay.
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	// Abandon without Shutdown (simulated SIGKILL).
	jp := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 12 {
		t.Fatalf("journal unexpectedly small: %d bytes", len(data))
	}
	data[10] ^= 0x04 // inside the first record's payload
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, s2, got := newPersistDC(t, persistOpts(dir))
	rec := s2.Recovery()
	if !rec.ColdStart || rec.Recovered || rec.Reason == "" {
		t.Fatalf("recovery = %+v, want explicit cold start", rec)
	}
	if _, err := os.Stat(jp + ".corrupt"); err != nil {
		t.Fatalf("damaged journal not preserved: %v", err)
	}
	// Cold start == fresh session over the initial network.
	dRef := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	_, want, err := incr.NewSession(dRef.Net, core.Options{Engine: core.EngineSAT}, dRef.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "cold-start", got, want)
	compareWitnesses(t, "cold-start", got, want)
	// And the new store works: apply, shut down, warm-restart again.
	if _, err := s2.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	_, s3, _ := newPersistDC(t, persistOpts(dir))
	if rec := s3.Recovery(); !rec.Recovered || rec.ColdStart {
		t.Fatalf("store unusable after cold start: %+v", rec)
	}
}

// A store written under a different configuration (here: a different
// invariant set) must not transfer: recovery detects the config-hash
// mismatch and cold starts explicitly.
func TestConfigDriftColdStart(t *testing.T) {
	dir := t.TempDir()
	_, s1, _ := newPersistDC(t, persistOpts(dir))
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()[:2] // drop invariants: different session config
	s2, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, invs, persistOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovery()
	if !rec.ColdStart || rec.Recovered {
		t.Fatalf("recovery = %+v, want cold start on config drift", rec)
	}
}

// The configuration hash of a fixed description is pinned: a store written
// by an earlier build must open warm, so a faster key writer must write the
// same bytes.
func TestConfigHashPinned(t *testing.T) {
	net, invs, err := netdesc.Build(netdesc.CloudVPC(netdesc.VPCConfig{Tenants: 16, Shapes: 2}), "")
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := incr.NewSession(net, core.Options{}, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.ConfigHash(), uint64(0x915e310231d81641); got != want {
		t.Fatalf("configHash = %#016x, want %#016x", got, want)
	}
}

// A restart over an edited description is a restart over a different
// configuration: an ACL entry, a forwarding rule or a link changed in the
// file must cold-start with a reason, never replay the journal onto it. The
// journaled fw_deny is a box_state carrying the whole old ACL, so a warm
// restart after the ACL edit would silently undo the file's edit.
func TestEditedDescriptionColdStarts(t *testing.T) {
	dir := t.TempDir()
	desc := netdesc.CloudVPC(netdesc.VPCConfig{Tenants: 4, Shapes: 2})
	start := func() (*core.Network, *incr.Session) {
		t.Helper()
		net, invs, err := netdesc.Build(desc, "")
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := incr.NewSession(net, core.Options{}, invs, persistOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		return net, s
	}
	// exported spells the firewall t1-fw holds in net as a description does.
	exported := func(net *core.Network) string {
		t.Helper()
		box, err := netdesc.ExportBox("t1-fw", boxAt(net, net.Topo.MustByName("t1-fw").ID), net.Registry)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(box)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	deny := func(net *core.Network, s *incr.Session) {
		t.Helper()
		changes, err := incr.DecodeChangeSet(net, []byte(`{"op":"fw_deny","node":"t1-fw","src":"10.9.0.0/24","dst":"*"}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Apply(changes); err != nil {
			t.Fatal(err)
		}
		if err := s.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	deny(start())
	for _, edit := range []struct {
		name string
		edit func()
	}{
		{"acl entry", func() {
			for i := range desc.Nodes {
				if desc.Nodes[i].Name == "t1-fw" {
					desc.Nodes[i].Box.ACL[2].Src = "9.2.0.0/16"
				}
			}
		}},
		{"fib rule", func() { desc.FIB["fab"][1].Priority = 11 }},
		{"link", func() { desc.Links = append(desc.Links, [2]string{"t0-sw", "t1-sw"}) }},
	} {
		edit.edit()
		file, _, err := netdesc.Build(desc, "")
		if err != nil {
			t.Fatal(err)
		}
		net, s := start()
		if rec := s.Recovery(); !rec.ColdStart || rec.Recovered || rec.Reason == "" {
			t.Fatalf("%s: recovery = %+v, want a cold start with a reason", edit.name, rec)
		}
		if got, want := exported(net), exported(file); got != want {
			t.Fatalf("%s: t1-fw holds %s, the file says %s", edit.name, got, want)
		}
		deny(net, s)
	}
}

// A box removed and bound again through the library journals as box_remove
// then box_state: the store stays healthy, the snapshot keeps both though
// the model bound is the configured one (the box now comes last in the
// list), and the restart comes back to the same network, box order
// included, and the same reports.
func TestDurableBoxRebind(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	ids2 := boxAt(d1.Net, d1.IDS2)
	for _, ch := range []incr.Change{incr.BoxRemove(d1.IDS2), incr.BoxSwap(d1.IDS2, ids2)} {
		if _, err := s1.Apply([]incr.Change{ch}); err != nil {
			t.Fatal(err)
		}
	}
	if ps := s1.PersistStatus(); ps.Degraded != "" {
		t.Fatalf("a re-bound box degraded the store: %s", ps.Degraded)
	}
	order := func(net *core.Network) (nodes []topo.NodeID) {
		for _, b := range net.Boxes {
			nodes = append(nodes, b.Node)
		}
		return nodes
	}
	wantDump, wantOrder, want := canonicalDump(t, d1.Net, s1.Invariants()), order(d1.Net), s1.CurrentReports()
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	snap, err := store.ReadSnapshot(filepath.Join(dir, "snapshot.vmn"))
	if want := `"changes":[{"op":"box_remove","node":"ids2"},{"op":"box_state","node":"ids2",`; err != nil || !bytes.Contains(snap, []byte(want)) {
		t.Fatalf("the shutdown snapshot does not keep the unbind and the rebind (%v):\n%s", err, snap)
	}

	d2, s2, got := newPersistDC(t, persistOpts(dir))
	if rec := s2.Recovery(); !rec.Recovered || rec.ColdStart {
		t.Fatalf("recovery = %+v, want a warm restart", rec)
	}
	if ps := s2.PersistStatus(); ps.Degraded != "" {
		t.Fatalf("restarted store degraded: %s", ps.Degraded)
	}
	if dump := canonicalDump(t, d2.Net, s2.Invariants()); !bytes.Equal(dump, wantDump) {
		t.Fatalf("restart dump differs\n--- got ---\n%s\n--- want ---\n%s", dump, wantDump)
	}
	if got := order(d2.Net); !slices.Equal(got, wantOrder) {
		t.Fatalf("restart box order %v, want %v", got, wantOrder)
	}
	compareReports(t, "re-bound restart", got, want)
	compareWitnesses(t, "re-bound restart", got, want)
}

// A journal record may carry firewall edits (fw_allow and the like), whose
// meaning depends on the model bound before them. Recovery keeps each as the
// box_state it resolved to, so once compaction has folded the first of two
// edits of one firewall away, the second still restores both.
func TestRecoveredFirewallEditsStayWhole(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, nil, []byte(`{"seq":1,"changes":[`+
		`{"op":"fw_allow","node":"fw1","src":"10.8.0.0/24","dst":"*"},`+
		`{"op":"fw_allow","node":"fw1","src":"10.9.0.0/24","dst":"*"}]}`))
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	if rec := s1.Recovery(); !rec.Recovered || rec.ColdStart {
		t.Fatalf("recovery = %+v, want a warm restart", rec)
	}
	want := canonicalDump(t, d1.Net, s1.Invariants())
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	d2, s2, _ := newPersistDC(t, persistOpts(dir))
	if rec := s2.Recovery(); !rec.Recovered || rec.ColdStart {
		t.Fatalf("second recovery = %+v, want a warm restart", rec)
	}
	if got := canonicalDump(t, d2.Net, s2.Invariants()); !bytes.Equal(got, want) {
		t.Fatalf("the restart after the shutdown snapshot differs\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// A change outside the durable codec (a FIBFor closure) poisons the
// store: status reports degraded, and the NEXT restart is an explicit
// cold start — the journal can no longer reproduce the live state and
// must say so rather than restore the stale prefix.
func TestOpaqueChangePoisonsStore(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	base := d1.Net.FIBFor
	if _, err := s1.Apply([]incr.Change{incr.FIBUpdate(base)}); err != nil {
		t.Fatal(err)
	}
	ps := s1.PersistStatus()
	if ps.Degraded == "" {
		t.Fatalf("status not degraded after opaque change: %+v", ps)
	}
	// Later applies keep working in memory, just not durably.
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	_, s2, _ := newPersistDC(t, persistOpts(dir))
	rec := s2.Recovery()
	if !rec.ColdStart || rec.Recovered {
		t.Fatalf("recovery = %+v, want cold start after poisoned journal", rec)
	}
	if rec.Reason == "" {
		t.Fatal("cold start without a reason")
	}
}

// A snapshot that cannot be written must not be compacted behind: the error
// reaches PersistStatus, journaling stops, and the restart is an explicit
// cold start on the initial network rather than an old snapshot beside an
// emptied journal.
func TestSnapshotWriteFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	sopts := incr.Options{Persist: &incr.PersistOptions{Dir: dir, SnapshotEvery: 1}}
	d1, s1, _ := newPersistDC(t, sopts)
	// The rename over a non-empty directory fails after the temp file was
	// written and synced, as a failed directory sync would.
	snap := filepath.Join(dir, "snapshot.vmn")
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(snap, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	if ps := s1.PersistStatus(); ps.Degraded == "" || ps.JournalRecords != 1 {
		t.Fatalf("status after a failed snapshot = %+v, want degraded with the record uncompacted", ps)
	}
	if err := os.RemoveAll(snap); err != nil {
		t.Fatal(err)
	}
	fresh, _, want := newPersistDC(t, incr.Options{})
	d2, s2, got := newPersistDC(t, sopts)
	if rec := s2.Recovery(); rec.Recovered {
		t.Fatalf("recovery = %+v after persistence failed, want no restore", rec)
	}
	if !bytes.Equal(canonicalDump(t, d2.Net, s2.Invariants()), canonicalDump(t, fresh.Net, fresh.AllIsolationInvariants())) {
		t.Fatal("restart after a failed snapshot is not on the initial network")
	}
	compareReports(t, "restart", got, want)
}

// PersistStatus surfaces the store's live accounting.
func TestPersistStatus(t *testing.T) {
	dir := t.TempDir()
	d1, s1, _ := newPersistDC(t, persistOpts(dir))
	ps := s1.PersistStatus()
	if !ps.Enabled || ps.Dir != dir || ps.Degraded != "" {
		t.Fatalf("status = %+v", ps)
	}
	if ps.SnapshotSeq == 0 {
		t.Fatalf("no startup snapshot: %+v", ps)
	}
	if _, err := s1.Apply([]incr.Change{incr.NodeDown(d1.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	ps = s1.PersistStatus()
	if ps.JournalRecords != 1 || ps.JournalBytes == 0 {
		t.Fatalf("after one apply: %+v", ps)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Disabled sessions report a zero status.
	d2 := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	s2, _, err := incr.NewSession(d2.Net, core.Options{Engine: core.EngineSAT}, d2.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ps := s2.PersistStatus(); ps.Enabled || ps.Recovery.Enabled {
		t.Fatalf("disabled session status = %+v", ps)
	}
}

// Every built-in invariant type must round-trip through the journal's
// codec: EncodeChange writes the inv_add a record carries, the wire
// decoder reads it back (snapshots and journals depend on it).
func TestEncodeInvariantRoundTrip(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	topoT := d.Net.Topo
	a0 := topoT.Node(d.Hosts[0][0]).Addr
	for i, c := range []inv.Invariant{
		inv.SimpleIsolation{Dst: d.Hosts[1][0], SrcAddr: a0, Label: "si"},
		inv.FlowIsolation{Dst: d.Hosts[1][0], SrcAddr: a0, Label: "fi"},
		inv.Reachability{Dst: d.Hosts[1][0], SrcAddr: a0, Label: "re"},
		inv.DataIsolation{Dst: d.Hosts[1][0], Origin: a0, Label: "di"},
		inv.Traversal{Dst: d.Hosts[1][0], SrcPrefix: pkt.HostPrefix(a0), SrcAddr: a0, Vias: []topo.NodeID{d.FW1}, Label: "tr"},
	} {
		w, ok := incr.EncodeChange(d.Net, incr.AddInvariant(c))
		if !ok {
			t.Fatalf("case %d: not encodable", i)
		}
		back, err := incr.DecodeChanges(d.Net, []incr.WireChange{w})
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(back) != 1 || fmt.Sprintf("%#v", back[0].Invariant) != fmt.Sprintf("%#v", c) {
			t.Fatalf("case %d: round trip\n got %#v\nwant %#v", i, back, c)
		}
	}
}

// writeStore lays a state directory out from raw payloads: the snapshot
// (nil = none) and the journal records, framed as the store frames them.
func writeStore(t testing.TB, dir string, snapshot []byte, records ...[]byte) {
	t.Helper()
	if snapshot != nil {
		if err := store.WriteSnapshot(filepath.Join(dir, "snapshot.vmn"), snapshot); err != nil {
			t.Fatal(err)
		}
	}
	j, _, err := store.OpenJournal(filepath.Join(dir, "journal.wal"), store.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// A state directory written by an earlier revision must not be half-read.
// Two generations are pinned, each as what that revision's vmnd wrote for
// this very configuration (datacenter, 3 groups, SAT engine) after an
// fw_allow and an inv_add: the one before journal records became wire
// change-sets (firewall state under "fw", invariants under "inv", per-box
// config hashes), whose first record no longer decodes, and the parent's
// (version 1, codec 2), whose snapshot dumps the whole network under
// down/policy/boxes/invariants. The snapshot's version refuses it, the codec
// byte in the configuration fingerprint refuses it had the version lied, and
// either way the session cold-starts on the freshly built network and says
// why. A third is the snapshot (verdict store included) and journal the
// revision before the options entered the fingerprint through
// core.Options.AppendVerdictKey wrote (version 2, codec 3): same version,
// so only the codec byte stands between its verdicts and this session. A
// fourth is what the revision whose options still carried the solver seed,
// random-branch frequency and explicit-state budget wrote (codec 4), which
// that revision restores warm.
func TestParentFormatStateColdStarts(t *testing.T) {
	const acl = `{"src":"10.0.0.0/24","dst":"10.1.0.0/24"},{"src":"10.0.0.0/24","dst":"10.2.0.0/24"},` +
		`{"src":"10.1.0.0/24","dst":"10.0.0.0/24"},{"src":"10.1.0.0/24","dst":"10.2.0.0/24"},` +
		`{"src":"10.2.0.0/24","dst":"10.0.0.0/24"},{"src":"10.2.0.0/24","dst":"10.1.0.0/24"}`
	const invariants = `"invariants":[{"type":"simple_isolation","dst":"h1-0","src_addr":"10.0.0.1","label":"iso g0->g1"},` +
		`{"type":"simple_isolation","dst":"h2-0","src_addr":"10.0.0.1","label":"iso g0->g2"},` +
		`{"type":"simple_isolation","dst":"h0-0","src_addr":"10.1.0.1","label":"iso g1->g0"},` +
		`{"type":"simple_isolation","dst":"h2-0","src_addr":"10.1.0.1","label":"iso g1->g2"},` +
		`{"type":"simple_isolation","dst":"h0-0","src_addr":"10.2.0.1","label":"iso g2->g0"},` +
		`{"type":"simple_isolation","dst":"h1-0","src_addr":"10.2.0.1","label":"iso g2->g1"}]}`
	const policy = `"policy":{"h0-0":"tier-0","h1-0":"tier-1","h2-0":"tier-2"},`
	const snapshot1 = `{"version":1,"config":9163900738520554507,"seq":1,` + policy + `"boxes":[` +
		`{"node":"fw1","fw":{"name":"fw1","default_allow":true,"acl":[` + acl + `]}},` +
		`{"node":"fw2","fw":{"name":"fw2","default_allow":true,"acl":[` + acl + `]}},` +
		`{"node":"ids1","config_hash":4636616019471412245},{"node":"ids2","config_hash":4636616019471412245}],` + invariants
	records1 := [][]byte{
		[]byte(`{"seq":2,"id":"a1","changes":[{"op":"box_state","node":"fw1","fw":{"name":"fw1","default_allow":true,"acl":[` +
			`{"src":"10.9.0.0/24","dst":"0.0.0.0/0","allow":true},` + acl + `]}}]}`),
		[]byte(`{"seq":3,"changes":[{"op":"inv_add","inv":{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1","label":"x"}}]}`),
	}
	deny := strings.ReplaceAll(acl, `{"src"`, `{"action":"deny","src"`)
	snapshot2 := `{"version":1,"config":17804505473473491956,"seq":1,` + policy + `"boxes":[` +
		`{"node":"fw1","box":{"type":"firewall","acl":[` + deny + `],"default_allow":true}},` +
		`{"node":"fw2","box":{"type":"firewall","acl":[` + deny + `],"default_allow":true}},` +
		`{"node":"ids1","box":{"type":"idps"}},{"node":"ids2","box":{"type":"idps"}}],` + invariants
	records2 := [][]byte{
		[]byte(`{"seq":2,"id":"a1","changes":[{"op":"box_state","node":"fw1","box":{"type":"firewall","acl":[` +
			`{"action":"allow","src":"10.9.0.0/24","dst":"*"},` + deny + `],"default_allow":true}}]}`),
		[]byte(`{"seq":3,"changes":[{"op":"inv_add","invariant":{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1","label":"x"}}]}`),
	}
	const snapshot3 = `{"version":2,"config":15811521706933809941,"seq":3,"applied":{"a1":2},"changes":[{"op":"box_state","node":"fw1","box":{"type":"firewall","acl":[{"action":"allow","src":"10.9.0.0/24","dst":"*"},{"action":"deny","src":"10.0.0.0/24","dst":"10.1.0.0/24"},{"action":"deny","src":"10.0.0.0/24","dst":"10.2.0.0/24"},{"action":"deny","src":"10.1.0.0/24","dst":"10.0.0.0/24"},{"action":"deny","src":"10.1.0.0/24","dst":"10.2.0.0/24"},{"action":"deny","src":"10.2.0.0/24","dst":"10.0.0.0/24"},{"action":"deny","src":"10.2.0.0/24","dst":"10.1.0.0/24"}],"default_allow":true}}],"cache":[{"k":"YwEBAAAAAAAAAAAAAAAAAElpAABIAgEAAAFBQgICCUYCAAEBAQABAQMJSf////8PAAEAUwQBAAHoB1AA/////w8A/////w8BAAFQ6AcA/////w8A/////w8AAQDoB1AA/////w8A/////w8AAQBQ6AcA/////w8A/////w8DTwIBAE0CAgABAgMDAQBOBAAAAAACAAIAUAIYARgC","r":{"o":0,"s":true,"e":"sat","sh":2,"sb":2},"ren":{"n":[8,6,1,3],"a":[167772161,167837697],"p":[{"Addr":167772160,"Len":24},{"Addr":167837696,"Len":24}]}},{"k":"YwEBAAAAAAAAAAAAAAAAAElpAABIAgABAQBBQgICCUYCAAEBAQABAQMJSf////8PAAEAUwQAAQDoB1AA/////w8A/////w8AAQBQ6AcA/////w8A/////w8BAAHoB1AA/////w8A/////w8BAAFQ6AcA/////w8A/////w8DTwIBAE0CAgABAgMDAQBOBAAAAAACAAIAUAIYAhgB","r":{"o":0,"s":true,"e":"sat","sh":2,"sb":2},"ren":{"n":[6,8,1,3],"a":[167837697,167772161],"p":[{"Addr":167772160,"Len":24},{"Addr":167837696,"Len":24}]}}]}`
	records3 := [][]byte{[]byte(`{"seq":4,"changes":[{"op":"inv_add","invariant":{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1","label":"x"}}]}`)}
	const snapshot4 = `{"version":2,"config":3895081803663002182,"seq":2,"applied":{"a1":2},"changes":[{"op":"box_state","node":"fw1","box":{"type":"firewall","acl":[{"action":"allow","src":"10.9.0.0/24","dst":"*"},{"action":"deny","src":"10.0.0.0/24","dst":"10.1.0.0/24"},{"action":"deny","src":"10.0.0.0/24","dst":"10.2.0.0/24"},{"action":"deny","src":"10.1.0.0/24","dst":"10.0.0.0/24"},{"action":"deny","src":"10.1.0.0/24","dst":"10.2.0.0/24"},{"action":"deny","src":"10.2.0.0/24","dst":"10.0.0.0/24"},{"action":"deny","src":"10.2.0.0/24","dst":"10.1.0.0/24"}],"default_allow":true}}],"cache":[{"k":"YwEBAAAAAAAAAAAAAAAAAElpAABIAgEAAAFBQgICCUYCAAEBAQABAQMJSf////8PAAEAUwQBAAHoB1AA/////w8A/////w8BAAFQ6AcA/////w8A/////w8AAQDoB1AA/////w8A/////w8AAQBQ6AcA/////w8A/////w8DTwIBAE0CAgABAgMDAQBOBAAAAAACAAIAUAIYARgC","r":{"o":0,"s":true,"e":"sat","sh":2,"sb":2},"ren":{"n":[8,6,1,3],"a":[167772161,167837697],"p":[{"Addr":167772160,"Len":24},{"Addr":167837696,"Len":24}]}},{"k":"YwEBAAAAAAAAAAAAAAAAAElpAABIAgABAQBBQgICCUYCAAEBAQABAQMJSf////8PAAEAUwQAAQDoB1AA/////w8A/////w8AAQBQ6AcA/////w8A/////w8BAAHoB1AA/////w8A/////w8BAAFQ6AcA/////w8A/////w8DTwIBAE0CAgABAgMDAQBOBAAAAAACAAIAUAIYAhgB","r":{"o":0,"s":true,"e":"sat","sh":2,"sb":2},"ren":{"n":[6,8,1,3],"a":[167837697,167772161],"p":[{"Addr":167772160,"Len":24},{"Addr":167837696,"Len":24}]}}]}`
	records4 := [][]byte{[]byte(`{"seq":3,"changes":[{"op":"inv_add","invariant":{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1","label":"x"}}]}`)}
	const snapshot5 = `{"version":2,"config":9100382811728366695,"seq":2,"applied":{"a1":2},"changes":[{"op":"box_state","node":"fw1","box":{"type":"firewall","acl":[{"action":"allow","src":"10.9.0.0/24","dst":"*"},{"action":"deny","src":"10.0.0.0/24","dst":"10.1.0.0/24"},{"action":"deny","src":"10.0.0.0/24","dst":"10.2.0.0/24"},{"action":"deny","src":"10.1.0.0/24","dst":"10.0.0.0/24"},{"action":"deny","src":"10.1.0.0/24","dst":"10.2.0.0/24"},{"action":"deny","src":"10.2.0.0/24","dst":"10.0.0.0/24"},{"action":"deny","src":"10.2.0.0/24","dst":"10.1.0.0/24"}],"default_allow":true}}],"cache":[{"k":"YwEBAAAASWkAAEgCAQAAAUFCAgIJRgIAAQEBAAEBAwlJ/////w8AAQBTBAEAAegHUAD/////DwD/////DwEAAVDoBwD/////DwD/////DwABAOgHUAD/////DwD/////DwABAFDoBwD/////DwD/////DwNPAgEATQICAAECAwMBAE4EAAAAAAIAAgBQAhgBGAI=","r":{"o":0,"s":true,"e":"sat","sh":2,"sb":2},"ren":{"n":[8,6,1,3],"a":[167772161,167837697],"p":[{"Addr":167772160,"Len":24},{"Addr":167837696,"Len":24}]}},{"k":"YwEBAAAASWkAAEgCAAEBAEFCAgIJRgIAAQEBAAEBAwlJ/////w8AAQBTBAABAOgHUAD/////DwD/////DwABAFDoBwD/////DwD/////DwEAAegHUAD/////DwD/////DwEAAVDoBwD/////DwD/////DwNPAgEATQICAAECAwMBAE4EAAAAAAIAAgBQAhgCGAE=","r":{"o":0,"s":true,"e":"sat","sh":2,"sb":2},"ren":{"n":[6,8,1,3],"a":[167837697,167772161],"p":[{"Addr":167772160,"Len":24},{"Addr":167837696,"Len":24}]}}]}`
	fresh, _, want := newPersistDC(t, incr.Options{})
	for _, tc := range []struct {
		name     string
		snapshot []byte
		records  [][]byte
	}{
		{"snapshot and journal", []byte(snapshot1), records1},
		{"journal only", nil, records1},
		{"parent snapshot and journal", []byte(snapshot2), records2},
		{"parent snapshot claiming version 2", []byte(strings.Replace(snapshot2, `"version":1`, `"version":2`, 1)), records2},
		{"codec 3 snapshot and journal", []byte(snapshot3), records3},
		{"codec 4 snapshot and journal", []byte(snapshot4), records4},
		{"codec 5 snapshot and journal", []byte(snapshot5), records4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, tc.snapshot, tc.records...)
			d, s, got := newPersistDC(t, persistOpts(dir))
			rec := s.Recovery()
			if !rec.ColdStart || rec.Recovered || rec.Reason == "" {
				t.Fatalf("recovery = %+v, want an explicit cold start", rec)
			}
			t.Log(rec.Reason)
			aside := []string{"journal.wal.corrupt"}
			if tc.snapshot != nil {
				aside = append(aside, "snapshot.vmn.corrupt")
			}
			for _, f := range aside {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Fatalf("old-format state not kept aside: %v", err)
				}
			}
			if s.IsApplied("a1") {
				t.Fatal("a request id of the refused store was restored")
			}
			if !bytes.Equal(canonicalDump(t, d.Net, s.Invariants()), canonicalDump(t, fresh.Net, fresh.AllIsolationInvariants())) {
				t.Fatal("a refused store left a trace in the network")
			}
			compareReports(t, "cold-start", got, want)
		})
	}
}

// A store written under one conflict budget must not warm-start a session
// solving under another: Unknown outcomes depend on the budget, so the
// configuration fingerprint covers it. Restarting under the writer's own
// budget stays warm.
func TestConflictBudgetChangeColdStarts(t *testing.T) {
	dir := t.TempDir()
	open := func(budget int64) *incr.Session {
		t.Helper()
		d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
		s, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT, MaxConflicts: budget},
			d.AllIsolationInvariants(), persistOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := open(5000).Shutdown(); err != nil {
		t.Fatal(err)
	}
	same := open(5000)
	if rec := same.Recovery(); !rec.Recovered || rec.ColdStart {
		t.Fatalf("same budget: recovery = %+v, want a warm start", rec)
	}
	if err := same.Shutdown(); err != nil {
		t.Fatal(err)
	}
	rec := open(6000).Recovery()
	if !rec.ColdStart || rec.Recovered || !strings.Contains(rec.Reason, "different configuration or codec version") {
		t.Fatalf("5000 -> 6000: recovery = %+v, want a cold start naming the configuration", rec)
	}
}

// A snapshot follows the change, not the network: on a 256-tenant VPC (1 028
// nodes, 522 invariants) the snapshot of a fresh directory holds the verdict
// store and nothing about the network, and 64 edits of one firewall leave it
// the size one edit did — the log coalesces to that firewall's last state.
// Nor does it follow the history: once 200 tenants have each had a firewall
// entry added and deleted and a host relabelled and relabelled back, it holds
// no change, and is the size the first tenant's round left it (that round's
// relabel adds the edited tenant's verdicts, ~1 KB, to the store).
func TestSnapshotFollowsTheChange(t *testing.T) {
	net, invs, err := netdesc.Build(netdesc.CloudVPC(netdesc.VPCConfig{Tenants: 256, Shapes: 8, Peerings: 2, CrossChecks: 8}), "")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sess, _, err := incr.NewSession(net, core.Options{}, invs,
		incr.Options{Persist: &incr.PersistOptions{Dir: dir, SnapshotEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	snapshotSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "snapshot.vmn"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	fresh := snapshotSize()
	if fresh >= 64<<10 {
		t.Fatalf("fresh-directory snapshot is %d bytes, want < 64 KB", fresh)
	}
	apply := func(line string) {
		t.Helper()
		changes, err := incr.DecodeChangeSet(net, []byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Apply(changes); err != nil {
			t.Fatal(err)
		}
	}
	fwEdit := func(op string, tenant int) string {
		return fmt.Sprintf(`{"op":%q,"node":"t%d-fw","src":"8.0.0.0/8","dst":"10.0.%d.128/25"}`, op, tenant, tenant)
	}
	// Alternate an allowance in and out: the ACL, hence the box_state the
	// snapshot carries, is the same size after every odd edit.
	edit := func(i int) { t.Helper(); apply(fwEdit([]string{"fw_allow", "fw_del"}[i%2], 100)) }
	edit(0)
	one := snapshotSize()
	if one <= fresh {
		t.Fatalf("an edited firewall left the snapshot at %d bytes (fresh: %d)", one, fresh)
	}
	for i := 1; i < 65; i++ {
		edit(i)
	}
	if many := snapshotSize(); many > one+one/10 || many < one-one/10 {
		t.Fatalf("snapshot is %d bytes after 65 edits of one firewall, %d after one: want within 10 %%", many, one)
	}
	edit(65)
	first := int64(0)
	for tenant := 0; tenant < 200; tenant++ {
		pub, _ := net.Topo.ByName(fmt.Sprintf("t%d-pub", tenant))
		relabel, class := `{"op":"relabel","node":"t%d-pub","class":%q}`, net.PolicyClass[pub.ID]
		apply(fwEdit("fw_allow", tenant))
		apply(fwEdit("fw_del", tenant))
		apply(fmt.Sprintf(relabel, tenant, "edit"))
		apply(fmt.Sprintf(relabel, tenant, class))
		if tenant == 0 {
			first = snapshotSize()
		}
	}
	if undone := snapshotSize(); undone > first+first/10 {
		t.Fatalf("snapshot is %d bytes after 200 tenants were edited and undone, %d after the first: want within 10 %%", undone, first)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "snapshot.vmn")); err != nil || bytes.Contains(raw, []byte(`"changes"`)) {
		t.Fatalf("the snapshot of a network back at its configuration holds a change-set (%v):\n%s", err, raw)
	}
}

// FuzzRestoreState feeds NewSession arbitrary snapshot and journal-record
// payloads (framed and checksummed as the store would have: what is fuzzed
// is everything behind the CRC). It must never panic or fail, and it must
// either recover, or cold-start saying why with the live network
// byte-identical to the freshly built one — never a half-restored state.
func FuzzRestoreState(f *testing.F) {
	newDC := func(t testing.TB, sopts incr.Options) (*bench.Datacenter, *incr.Session) {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
		sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, d.AllIsolationInvariants(), sopts)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		return d, sess
	}
	// Seed with a real store: the startup snapshot, then records of every
	// durable op, left in the journal as after a kill; and what a clean
	// shutdown makes of them. The last record undoes the firewall edit and
	// the relabel of the first.
	seedDir := f.TempDir()
	d, sess := newDC(f, incr.Options{Persist: &incr.PersistOptions{Dir: seedDir, SnapshotEvery: -1}})
	for _, line := range []string{
		`[{"op":"fw_allow","node":"fw1","src":"10.9.0.0/24","dst":"*"},{"op":"relabel","node":"h0-0","class":"x"}]`,
		`[{"op":"node_down","node":"fw2"},{"op":"inv_add","invariant":{"type":"traversal","dst":"h1-0","src_prefix":"10.0.0.0/24","vias":["ids1"]}}]`,
		`[{"op":"box_remove","node":"ids2"},{"op":"inv_remove","name":"iso g0->g1"},{"op":"node_up","node":"fw2"},` +
			`{"op":"fw_del","node":"fw1","src":"10.9.0.0/24","dst":"*"},{"op":"relabel","node":"h0-0","class":"tier-0"}]`,
	} {
		changes, err := incr.DecodeChangeSet(d.Net, []byte(line))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := sess.Apply(changes); err != nil {
			f.Fatal(err)
		}
	}
	snapshot, err := store.ReadSnapshot(filepath.Join(seedDir, "snapshot.vmn"))
	if err != nil {
		f.Fatal(err)
	}
	j, recs, err := store.OpenJournal(filepath.Join(seedDir, "journal.wal"), store.SyncNone)
	if err != nil || len(recs) != 3 {
		f.Fatalf("seed journal: %d records, %v", len(recs), err)
	}
	j.Close()
	// The shutdown snapshot folds those records into its own change-set,
	// the undone edits out.
	if err := sess.Shutdown(); err != nil {
		f.Fatal(err)
	}
	folded, err := store.ReadSnapshot(filepath.Join(seedDir, "snapshot.vmn"))
	if err != nil || !bytes.Contains(folded, []byte(`"changes":[`)) || bytes.Contains(folded, []byte(`"node":"fw1"`)) || bytes.Contains(folded, []byte(`"node":"h0-0"`)) {
		f.Fatalf("seed snapshot does not carry exactly the changes left: %v\n%s", err, folded)
	}
	f.Add(snapshot, recs[0], recs[1], recs[2])
	f.Add([]byte(nil), recs[0], recs[1], recs[2])
	f.Add(snapshot, recs[1], recs[0], []byte(`{"seq":9,"op":"opaque"}`))
	f.Add(folded, recs[2], []byte(`{"seq":5,"changes":[{"op":"inv_remove","name":"iso g1->g0"}]}`), []byte(nil))
	f.Add(bytes.Replace(folded, []byte(`"op":"box_remove"`), []byte(`"op":"box_state"`), 1), []byte(nil), []byte(nil), []byte(nil))
	f.Add([]byte(`{"version":2}`), []byte(`{"seq":2,"changes":[{"op":"box_state","node":"fw1"}]}`), []byte(nil), []byte(`not json`))
	// A relabel and an invariant addition replay, then the last record
	// does not: recovery must undo both and cold-start.
	f.Add([]byte(nil), []byte(`{"seq":1,"changes":[{"op":"relabel","node":"h0-0","class":"x"}]}`),
		[]byte(`{"seq":2,"changes":[{"op":"inv_add","invariant":{"type":"traversal","dst":"h1-0","src_prefix":"10.0.0.0/24","vias":["ids1"]}}]}`),
		[]byte(`{"seq":3,"changes":[{"op":"box_remove","node":"h0-0"}]}`))

	initial, _ := newDC(f, incr.Options{})
	want := canonicalDump(f, initial.Net, initial.AllIsolationInvariants())
	f.Fuzz(func(t *testing.T, snapshot, rec0, rec1, rec2 []byte) {
		dir := t.TempDir()
		var records [][]byte
		for _, r := range [][]byte{rec0, rec1, rec2} {
			if len(r) > 0 {
				records = append(records, r)
			}
		}
		writeStore(t, dir, snapshot, records...)
		d, sess := newDC(t, incr.Options{Persist: &incr.PersistOptions{Dir: dir}})
		rec := sess.Recovery()
		switch {
		case rec.Recovered && !rec.ColdStart:
		case rec.ColdStart && !rec.Recovered:
			if rec.Reason == "" {
				t.Fatal("cold start without a reason")
			}
			if got := canonicalDump(t, d.Net, sess.Invariants()); !bytes.Equal(got, want) {
				t.Fatalf("cold start (%s) over a network that is not the initial one:\n%s", rec.Reason, got)
			}
		default:
			if snapshot != nil || len(records) > 0 {
				t.Fatalf("a non-empty store neither recovered nor cold-started: %+v", rec)
			}
		}
	})
}
