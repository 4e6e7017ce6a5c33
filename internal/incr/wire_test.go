package incr_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/topo"
)

func TestWireDecodeAndApply(t *testing.T) {
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}

	lines := []string{
		`{"op":"node_down","node":"fw1"}`,
		`[{"op":"fw_del","node":"fw2","src":"10.0.0.0/24","dst":"10.1.0.0/24"},
		  {"op":"relabel","node":"h0-0","class":"broken-0"},
		  {"op":"relabel","node":"h1-0","class":"broken-1"}]`,
		`{"op":"inv_add","invariant":{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1","label":"leak?"}}`,
		`{"op":"noop"}`,
		`{"op":"node_up","node":"fw1"}`,
		`{"op":"inv_remove","name":"leak?"}`,
	}
	for _, line := range lines {
		changes, err := incr.DecodeChangeSet(d.Net, []byte(line))
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		reports, err := sess.Apply(changes)
		if err != nil {
			t.Fatalf("apply %q: %v", line, err)
		}
		res := incr.EncodeResult(d.Net.Topo, sess.LastApply(), reports)
		if len(res.Reports) != len(reports) {
			t.Fatalf("encoded %d reports, want %d", len(res.Reports), len(reports))
		}
		compareReports(t, line, reports, baseline(t, sess, core.Options{Engine: core.EngineSAT}, true))
	}

	// The fw_del line must have removed the entry from fw2 only; with fw1
	// back up the primary still enforces, but under fw1 failure the leak
	// shows. Decoding swapped an edited clone in, so read the models back
	// through the network.
	fw := map[topo.NodeID]*mbox.LearningFirewall{}
	for _, b := range d.Net.Boxes {
		if m, ok := b.Model.(*mbox.LearningFirewall); ok {
			fw[b.Node] = m
		}
	}
	if !fw[d.FW2].Allowed(bench.HostAddr(0, 0), bench.HostAddr(1, 0)) {
		t.Fatal("fw_del should have opened g0->g1 on the backup")
	}
	if fw[d.FW1].Allowed(bench.HostAddr(0, 0), bench.HostAddr(1, 0)) {
		t.Fatal("primary firewall must still deny g0->g1")
	}
}

func TestWireDecodeErrors(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	bad := []string{
		`{"op":"node_down","node":"nope"}`,
		`{"op":"frobnicate"}`,
		`{"op":"box_reconfig","node":"fw1"}`,                                    // a change carries its value: gone
		`{"op":"fw_del","node":"ids1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}`, // not a firewall
		`{"op":"inv_add","invariant":{"type":"weird","dst":"h0-0"}}`,
		`{"op":"fw_deny","node":"fw1","src":"999.0.0.0/24","dst":"*"}`,
		`not json at all`,
	}
	for _, line := range bad {
		if _, err := incr.DecodeChangeSet(d.Net, []byte(line)); err == nil {
			t.Fatalf("decode %q should have failed", line)
		}
	}
	// Unknown invariant names and empty lines are fine.
	if chs, err := incr.DecodeChangeSet(d.Net, []byte("   ")); err != nil || len(chs) != 0 {
		t.Fatalf("blank line: %v %v", chs, err)
	}
}

func TestWireInvariantRoundTrip(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	cases := []struct {
		json string
		want inv.Invariant
	}{
		{`{"type":"simple_isolation","dst":"h1-0","src_addr":"10.0.0.1","label":"l"}`,
			inv.SimpleIsolation{Dst: d.Hosts[1][0], SrcAddr: bench.HostAddr(0, 0), Label: "l"}},
		{`{"type":"data_isolation","dst":"h0-0","origin":"10.1.0.1"}`,
			inv.DataIsolation{Dst: d.Hosts[0][0], Origin: bench.HostAddr(1, 0)}},
	}
	for _, c := range cases {
		line := `{"op":"inv_add","invariant":` + c.json + `}`
		chs, err := incr.DecodeChangeSet(d.Net, []byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if len(chs) != 1 || chs[0].Invariant.Name() != c.want.Name() {
			t.Fatalf("decoded %v, want %v", chs[0].Invariant, c.want)
		}
	}
	// Traversal separately (Vias are node IDs).
	line := `{"op":"inv_add","invariant":{"type":"traversal","dst":"h1-0","src_prefix":"10.0.0.0/24","src_addr":"10.0.0.1","vias":["ids1","ids2"]}}`
	chs, err := incr.DecodeChangeSet(d.Net, []byte(line))
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := chs[0].Invariant.(inv.Traversal)
	if !ok || len(tr.Vias) != 2 || tr.Vias[0] != d.IDS1 || tr.Vias[1] != d.IDS2 {
		t.Fatalf("traversal decoded wrong: %+v", chs[0].Invariant)
	}
	if !strings.Contains(tr.SrcPrefix.String(), "/24") {
		t.Fatalf("prefix decoded wrong: %v", tr.SrcPrefix)
	}
}

// TestEncodeChangeRoundTrip pins that the journal's vocabulary loses
// nothing: for every kind of change with a written form, applying
// decode(EncodeChange(ch)) to a twin network — the record passing through
// JSON, as it does through the journal — leaves it byte-identical to the
// network ch itself was applied to, with identical reports and witnesses.
// The kinds with no written form say so.
func TestEncodeChangeRoundTrip(t *testing.T) {
	opts := core.Options{Engine: core.EngineSAT}
	newTwin := func() (*bench.Datacenter, *incr.Session) {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1, WithCaches: true})
		invs := []inv.Invariant{d.IsolationInvariant(0, 1), d.IsolationInvariant(1, 2), d.DataIsolationInvariant(0)}
		sess, _, err := incr.NewSession(d.Net, opts, invs, incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return d, sess
	}
	a, sa := newTwin()
	b, sb := newTwin()
	// Once a box is removed its node has no model to describe; the twins
	// must then fail to dump in the same way.
	dump := func(net *core.Network, sess *incr.Session) string {
		desc, err := netdesc.FromNetwork("twin", net, sess.Invariants())
		if err != nil {
			return err.Error()
		}
		data, err := netdesc.Encode(desc)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	leak := inv.Reachability{Dst: a.Hosts[1][0], SrcAddr: bench.HostAddr(0, 0), Label: "leak?"}
	ids2 := boxAt(a.Net, a.IDS2)
	cases := []struct {
		name string
		make func() incr.Change // against a
	}{
		{"node_down", func() incr.Change { return incr.NodeDown(a.FW1) }},
		{"node_up", func() incr.Change { return incr.NodeUp(a.FW1) }},
		{"relabel", func() incr.Change { return incr.Relabel(a.Hosts[0][0], "broken-0") }},
		{"box_swap edited firewall", func() incr.Change {
			fw := cloneFirewall(a.FWPrimary)
			fw.ACL = append([]mbox.ACLEntry{mbox.AllowEntry(bench.ClientPrefix(0), bench.ClientPrefix(1))}, fw.ACL...)
			return incr.BoxSwap(a.FW1, fw)
		}},
		{"box_swap firewall", func() incr.Change {
			return incr.BoxSwap(a.FW2, &mbox.LearningFirewall{InstanceName: "fw2", DefaultAllow: true})
		}},
		{"box_swap cache", func() incr.Change {
			return incr.BoxSwap(a.Caches[0], mbox.NewContentCache("cache0", mbox.DenyEntry(bench.ClientPrefix(1), bench.ClientPrefix(0))))
		}},
		{"inv_add", func() incr.Change { return incr.AddInvariant(leak) }},
		{"inv_remove", func() incr.Change { return incr.RemoveInvariant(leak.Name()) }},
		{"box_remove", func() incr.Change { return incr.BoxRemove(a.IDS2) }},
		{"box_swap onto the removed box", func() incr.Change { return incr.BoxSwap(a.IDS2, ids2) }},
	}
	for _, c := range cases {
		ch := c.make()
		ra, err := sa.Apply([]incr.Change{ch})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		w, ok := incr.EncodeChange(a.Net, ch)
		if !ok {
			t.Fatalf("%s has no written form", c.name)
		}
		raw, err := json.Marshal([]incr.WireChange{w})
		if err != nil {
			t.Fatal(err)
		}
		back, err := incr.DecodeChangeSet(b.Net, raw)
		if err != nil {
			t.Fatalf("%s: %s does not decode: %v", c.name, raw, err)
		}
		rb, err := sb.Apply(back)
		if err != nil {
			t.Fatalf("%s: %s does not apply: %v", c.name, raw, err)
		}
		if da, db := dump(a.Net, sa), dump(b.Net, sb); da != db {
			t.Fatalf("%s: networks diverge after replaying %s\n--- applied ---\n%s\n--- replayed ---\n%s", c.name, raw, da, db)
		}
		compareReports(t, c.name, rb, ra)
		compareWitnesses(t, c.name, rb, ra)
	}

	for _, ch := range []incr.Change{
		incr.FIBUpdate(a.Net.FIBFor),
		incr.AddInvariant(customInvariant{leak}),
	} {
		if w, ok := incr.EncodeChange(a.Net, ch); ok {
			t.Fatalf("%v change got a written form: %+v", ch.Kind, w)
		}
	}
}

// TestBoxBindNeedsAMiddlebox: a bind takes a model and a middlebox node,
// bound or not. On the 2-group datacenter a model swapped onto a host is
// refused by name and installs nothing; a box taken out over the wire comes
// back with box_state, after which the session agrees with a fresh
// VerifyAll over the re-bound network.
func TestBoxBindNeedsAMiddlebox(t *testing.T) {
	opts := core.Options{Engine: core.EngineSAT}
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	sess, _, err := incr.NewSession(d.Net, opts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	initial, seq := canonicalDump(t, d.Net, invs), sess.LastApply().Seq
	boxes := len(d.Net.Boxes)

	const refusal = `incr: node "h0-0" is not a middlebox`
	if _, err := sess.Apply([]incr.Change{incr.BoxSwap(d.Hosts[0][0], cloneFirewall(d.FWPrimary))}); err == nil || err.Error() != refusal {
		t.Fatalf("bind onto a host: got %v, want %q", err, refusal)
	}
	if len(d.Net.Boxes) != boxes || sess.LastApply().Seq != seq || string(canonicalDump(t, d.Net, invs)) != string(initial) {
		t.Fatalf("a refused bind installed something: %d boxes (want %d), seq %d (want %d)", len(d.Net.Boxes), boxes, sess.LastApply().Seq, seq)
	}

	state, ok := incr.EncodeChange(d.Net, incr.BoxSwap(d.IDS2, boxAt(d.Net, d.IDS2)))
	if !ok {
		t.Fatal("ids2's model has no written form")
	}
	rebind, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	var reports []core.Report
	for _, line := range []string{`{"op":"box_remove","node":"ids2"}`, string(rebind)} {
		changes, err := incr.DecodeChangeSet(d.Net, []byte(line))
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if reports, err = sess.Apply(changes); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	if got := canonicalDump(t, d.Net, invs); string(got) != string(initial) {
		t.Fatalf("the re-bound network differs from the initial one\n--- got ---\n%s\n--- want ---\n%s", got, initial)
	}
	want := baseline(t, sess, opts, true)
	compareReports(t, "re-bound", reports, want)
	compareWitnesses(t, "re-bound", reports, want)
}

// customInvariant is an invariant type outside the description format.
type customInvariant struct{ inv.Reachability }

// TestWireInvariantsMatchLoader pins that the wire and the strict file
// loader accept exactly the same invariants — they share one validating
// codec — so the description `{"op":"topology","name":"dump"}` emits always
// reloads.
func TestWireInvariantsMatchLoader(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	cases := []struct {
		inv  string
		want string // error text both must give; "" = both accept
	}{
		{`{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1"}`, ""},
		{`{"type":"traversal","dst":"h1-0","src_prefix":"10.0.0.77/24","vias":["ids1","fw1"]}`, ""},
		{`{"type":"traversal","dst":"h1-0","src_prefix":"*"}`, "traversal needs at least one via"},
		{`{"type":"traversal","dst":"h1-0","src_prefix":"*","vias":["h0-0"]}`, `via "h0-0" is not a middlebox`},
		{`{"type":"traversal","dst":"h1-0","src_prefix":"*","vias":["nope"]}`, `unknown node "nope"`},
		{`{"type":"data_isolation","dst":"h1-0","origin":"10.0.0"}`, `pkt: malformed address "10.0.0"`},
		{`{"type":"weird","dst":"h1-0"}`, `unknown invariant type "weird"`},
	}
	for _, c := range cases {
		_, wireErr := incr.DecodeChangeSet(d.Net, []byte(`{"op":"inv_add","invariant":`+c.inv+`}`))

		desc, err := netdesc.FromNetwork("dc", d.Net, nil)
		if err != nil {
			t.Fatal(err)
		}
		desc.Invariants = make([]netdesc.Invariant, 1)
		if err := json.Unmarshal([]byte(c.inv), &desc.Invariants[0]); err != nil {
			t.Fatal(err)
		}
		file, err := netdesc.Encode(desc)
		if err != nil {
			t.Fatal(err)
		}
		_, fileErr := netdesc.Decode(file, "dump.json")

		if c.want == "" {
			if wireErr != nil || fileErr != nil {
				t.Fatalf("%s: wire %v, loader %v; want both to accept", c.inv, wireErr, fileErr)
			}
			continue
		}
		if wireErr == nil || wireErr.Error() != "incr: "+c.want {
			t.Errorf("%s: wire error %v, want %q", c.inv, wireErr, "incr: "+c.want)
		}
		var de *netdesc.Error
		if !errors.As(fileErr, &de) || de.Msg != c.want {
			t.Errorf("%s: loader error %v, want %q", c.inv, fileErr, c.want)
		}
	}
}

// vpcPairs builds a one-shape CloudVPC session over tenants and returns it
// with edit/undo pairs on the last tenant, as the daemon's clients send
// them: "flip" is the fw_deny of its public prefix and the fw_del undoing
// it; "relabel" takes its public host out of its class with that deny
// (diverge) and back (converge); "node" takes its firewall down with the
// relabel and up again; "dead" is a firewall allow no slice reads and its
// fw_del.
func vpcPairs(tb testing.TB, tenants int) (*incr.Session, map[string][2][]incr.Change) {
	tb.Helper()
	net, invs, err := netdesc.Build(netdesc.CloudVPC(netdesc.VPCConfig{Tenants: tenants, Shapes: 1}), "")
	if err != nil {
		tb.Fatal(err)
	}
	sess, _, err := incr.NewSession(net, core.Options{}, invs, incr.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	t := tenants - 1
	fw := func(op, src, dst string) string {
		return fmt.Sprintf(`{"op":%q,"node":"t%d-fw","src":%q,"dst":%q}`, op, t, src, dst)
	}
	relabel := func(class string) string {
		return fmt.Sprintf(`{"op":"relabel","node":"t%d-pub","class":%q}`, t, class)
	}
	node := func(op string) string { return fmt.Sprintf(`{"op":%q,"node":"t%d-fw"}`, op, t) }
	pub, dead := fmt.Sprintf("10.%d.%d.0/25", t>>8, t&255), fmt.Sprintf("11.%d.%d.0/24", t>>8, t&255)
	lines := map[string][2]string{
		"flip":    {fw("fw_deny", "8.0.0.0/8", pub), fw("fw_del", "8.0.0.0/8", pub)},
		"relabel": {"[" + relabel("edit") + "," + fw("fw_deny", "8.0.0.0/8", pub) + "]", "[" + fw("fw_del", "8.0.0.0/8", pub) + "," + relabel("shape0-pub") + "]"},
		"node":    {"[" + relabel("edit") + "," + node("node_down") + "]", "[" + node("node_up") + "," + relabel("shape0-pub") + "]"},
		"dead":    {fw("fw_allow", dead, "12.0.0.0/24"), fw("fw_del", dead, "12.0.0.0/24")},
	}
	pairs := map[string][2][]incr.Change{}
	for name, pair := range lines {
		var cs [2][]incr.Change
		for i, line := range pair {
			// Decoding is pure: the undo decodes against the network as it
			// stands, and acts on it once the edit is applied.
			if cs[i], err = incr.DecodeChangeSet(net, []byte(line)); err != nil {
				tb.Fatal(err)
			}
		}
		pairs[name] = cs
	}
	return sess, pairs
}

// raceEnabled is set under the race detector (race_test.go), whose
// sync.Pool drops items at random.
var raceEnabled bool

// measure runs f and returns the allocations and bytes it made. Every
// measurement starts alike: two collections empty encoding/json's state
// pool of whatever earlier lines left in it, one small encoding puts a
// fresh state back, and no collection empties it while f runs.
func measure(f func()) (allocs, bytes uint64) {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	json.Marshal(incr.WireResult{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// checkReply demands that line be the one json.Encoder writes for
// EncodeResult over the session's last apply and current reports.
func checkReply(t *testing.T, what string, sess *incr.Session, line []byte) {
	t.Helper()
	want, err := json.Marshal(incr.EncodeResult(sess.Network().Topo, sess.LastApply(), sess.CurrentReports()))
	if err != nil {
		t.Fatal(err)
	}
	if string(line) != string(want)+"\n" {
		t.Fatalf("%s: spliced reply differs from EncodeResult's", what)
	}
}

// TestReplyRenderFollowsTheChange: after an Apply, rendering the reply
// costs what the Apply changed, not what the network holds — the same
// allocations at 256 and at 2 048 tenants (not compared under the race
// detector) after a firewall flip, a relabel that moves a member out of
// its group and back, and a firewall going down and up (which rewrites
// every report's scenario), and little memory after each: a fragment
// joined anew is written over the buffer of the one before, also when a
// firewall going down widens every row by its scenario (~13 %) and its
// coming up narrows them back.
func TestReplyRenderFollowsTheChange(t *testing.T) {
	cost := func(tenants int) (allocs, bytes [3][2]uint64) {
		sess, pairs := vpcPairs(t, tenants)
		buf := sess.AppendResult(nil, "", false)
		for pi, name := range []string{"flip", "relabel", "node"} {
			for i, cs := range pairs[name] {
				if _, err := sess.Apply(cs); err != nil {
					t.Fatal(err)
				}
				// The reply buffer is the caller's, and a line grows when
				// every report gains a scenario: room for it first.
				buf = slices.Grow(buf[:0], 2*len(buf))
				allocs[pi][i], bytes[pi][i] = measure(func() { buf = sess.AppendResult(buf[:0], "", false) })
				checkReply(t, fmt.Sprintf("%d tenants, %s %d", tenants, name, i), sess, buf)
			}
		}
		return allocs, bytes
	}
	// A render makes dozens of encoding/json calls, and a goroutine that
	// moves to another P between two of them misses the state pool once:
	// the fewest of two runs is the render's own count.
	least := func(tenants int) (allocs, bytes [3][2]uint64) {
		allocs, bytes = cost(tenants)
		again, _ := cost(tenants)
		for pi := range allocs {
			for i := range allocs[pi] {
				allocs[pi][i] = min(allocs[pi][i], again[pi][i])
			}
		}
		return allocs, bytes
	}
	small, _ := least(256)
	allocs, bytes := least(2048)
	t.Logf("render allocations and bytes [flip relabel node][edit undo]: %v, %v", allocs, bytes)
	if allocs != small && !raceEnabled {
		t.Errorf("render allocations follow the network: %v at 256 tenants, %v at 2048 ([flip relabel node][edit undo])", small, allocs)
	}
	for _, b := range bytes {
		if max(b[0], b[1]) >= 64<<10 {
			t.Errorf("render allocated %v bytes at 2048 tenants ([flip relabel node][edit undo]), want < 64 KiB after each", bytes)
		}
	}
}

// TestDeadEditFollowsTheChange: a firewall allow no slice reads, applied
// and answered through the daemon's call, allocates the same at 256 and
// at 2 048 tenants, and under 64 KiB.
func TestDeadEditFollowsTheChange(t *testing.T) {
	cost := func(tenants int) (allocs, bytes uint64) {
		sess, pairs := vpcPairs(t, tenants)
		dead := pairs["dead"]
		buf := sess.AppendResult(nil, "", false)
		for _, cs := range dead { // a round first: lazily built state settles
			var err error
			if buf, err = sess.AppendApply(buf[:0], "", cs, false); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		allocs, bytes = measure(func() { buf, err = sess.AppendApply(buf[:0], "", dead[0], false) })
		if err != nil {
			t.Fatal(err)
		}
		checkReply(t, fmt.Sprintf("%d tenants", tenants), sess, buf)
		return allocs, bytes
	}
	smallAllocs, _ := cost(256)
	allocs, bytes := cost(2048)
	t.Logf("dead edit: %d allocations, %d bytes", allocs, bytes)
	if allocs != smallAllocs && !raceEnabled {
		t.Errorf("a dead edit's allocations follow the network: %d at 256 tenants, %d at 2048", smallAllocs, allocs)
	}
	if bytes >= 64<<10 {
		t.Errorf("a dead edit allocated %d bytes at 2048 tenants, want < 64 KiB", bytes)
	}
}

// BenchmarkReplyRender is the daemon's apply call on a 2 048-tenant VPC,
// one case per edit/undo pair of vpcPairs: each iteration applies the edit
// or its undo and splices the reply into a reused buffer.
func BenchmarkReplyRender(b *testing.B) {
	for _, name := range []string{"flip", "relabel", "node", "dead"} {
		b.Run(name, func(b *testing.B) {
			sess, pairs := vpcPairs(b, 2048)
			buf := sess.AppendResult(nil, "", false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = sess.AppendApply(buf[:0], "", pairs[name][i%2], false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
