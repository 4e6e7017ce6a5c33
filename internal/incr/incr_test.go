package incr_test

// The incremental soundness property: after every Apply, the session's
// report set must be verdict-identical to a from-scratch VerifyAll over
// the same mutated network — same invariants in the same order, same
// outcomes, same satisfied bits, same symmetry reuse. The randomized
// streams below drive every change kind (liveness toggles, FIB updates,
// middlebox reconfiguration, relabels, invariant add/remove) over two
// bench scenarios, with the re-verification pool and the from-scratch
// VerifyAll's check pool both several workers wide so `go test -race`
// exercises the concurrent paths.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// baseline runs a fresh, non-incremental VerifyAll over the network's
// current state under the session's effective scenarios.
func baseline(t *testing.T, s *incr.Session, opts core.Options, useSymmetry bool) []core.Report {
	t.Helper()
	opts.Scenarios = s.EffectiveScenarios()
	v, err := core.NewVerifier(s.Network(), opts)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := v.VerifyAll(s.Invariants(), useSymmetry)
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

func compareReports(t *testing.T, step string, got, want []core.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: report count mismatch: session %d, from-scratch %d", step, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Invariant.Name() != w.Invariant.Name() {
			t.Fatalf("%s: report %d invariant mismatch: %q vs %q", step, i, g.Invariant.Name(), w.Invariant.Name())
		}
		if g.Scenario.Key() != w.Scenario.Key() {
			t.Fatalf("%s: report %d (%s) scenario mismatch: %q vs %q",
				step, i, g.Invariant.Name(), g.Scenario.Key(), w.Scenario.Key())
		}
		if g.Result.Outcome != w.Result.Outcome || g.Satisfied != w.Satisfied {
			t.Fatalf("%s: report %d (%s, scenario %q) verdict mismatch: session %v/%v, from-scratch %v/%v (cached=%v reused=%v)",
				step, i, g.Invariant.Name(), g.Scenario.Key(),
				g.Result.Outcome, g.Satisfied, w.Result.Outcome, w.Satisfied, g.Cached, g.Reused)
		}
		if g.Reused != w.Reused {
			t.Fatalf("%s: report %d (%s) symmetry-reuse mismatch: session %v, from-scratch %v",
				step, i, g.Invariant.Name(), g.Reused, w.Reused)
		}
	}
}

// overlayFIBFor layers extra rules over a base provider; each call to
// build returns an independent snapshot closure so the session's FIB
// diffing sees genuinely old vs new tables.
func overlayFIBFor(base func(topo.FailureScenario) tf.FIB, overlay map[topo.NodeID][]tf.Rule) func(topo.FailureScenario) tf.FIB {
	snap := map[topo.NodeID][]tf.Rule{}
	for n, rs := range overlay {
		snap[n] = append([]tf.Rule(nil), rs...)
	}
	return func(sc topo.FailureScenario) tf.FIB {
		fib := base(sc)
		if len(snap) == 0 {
			return fib
		}
		out := tf.FIB{}
		for n, rs := range fib {
			out[n] = rs
		}
		for n, rs := range snap {
			out[n] = append(append([]tf.Rule(nil), rs...), out[n]...)
		}
		return out
	}
}

// cloneFirewall copies a learning firewall: a session owns the models
// handed to it, so an edit is made on a clone and swapped in (BoxSwap).
func cloneFirewall(fw *mbox.LearningFirewall) *mbox.LearningFirewall {
	return &mbox.LearningFirewall{
		InstanceName: fw.InstanceName,
		ACL:          append([]mbox.ACLEntry(nil), fw.ACL...),
		DefaultAllow: fw.DefaultAllow,
	}
}

func TestSessionSoundnessDatacenter(t *testing.T) {
	const G = 4
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	// Traversal holds a Vias slice (an uncomparable invariant type):
	// exercises the by-position representative skip and the 't'
	// fingerprint branch.
	invs = append(invs, d.TraversalInvariant(0, 1), d.TraversalInvariant(2, 3))
	opts := core.Options{Engine: core.EngineSAT, Workers: 3}
	baseFIB := d.Net.FIBFor

	sess, reports, err := incr.NewSession(d.Net, opts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "init", reports, baseline(t, sess, opts, true))

	rng := rand.New(rand.NewSource(42))
	overlay := map[topo.NodeID][]tf.Rule{}
	hostDown := map[topo.NodeID]bool{}
	fresh := 0

	for step := 0; step < 10; step++ {
		var changes []incr.Change
		kind := step % 5
		switch kind {
		case 0: // host liveness toggle
			h := d.Hosts[rng.Intn(G)][0]
			if hostDown[h] {
				delete(hostDown, h)
				changes = append(changes, incr.NodeUp(h))
			} else {
				hostDown[h] = true
				changes = append(changes, incr.NodeDown(h))
			}
		case 1: // primary firewall liveness toggle (reroutes via backup)
			if step%2 == 1 {
				changes = append(changes, incr.NodeDown(d.FW1))
			} else {
				changes = append(changes, incr.NodeUp(d.FW1))
			}
		case 2: // relabel a host into a fresh singleton class
			fresh++
			h := d.Hosts[rng.Intn(G)][0]
			changes = append(changes, incr.Relabel(h, fmt.Sprintf("fresh-%d", fresh)))
		case 3: // delete a random inter-group deny rule from both firewalls
			d.FWPrimary, d.FWBackup = cloneFirewall(d.FWPrimary), cloneFirewall(d.FWBackup)
			aff := d.DeleteRandomDenyRules(rng, 1)
			changes = append(changes, incr.BoxSwap(d.FW1, d.FWPrimary), incr.BoxSwap(d.FW2, d.FWBackup))
			// DeleteRandomDenyRules also isolated the affected groups'
			// policy classes; relabel them to match.
			for _, pair := range aff {
				for _, g := range pair {
					for _, h := range d.Hosts[g] {
						changes = append(changes, incr.Relabel(h, d.Net.PolicyClass[h]))
					}
				}
			}
		case 4: // rack-local forwarding update (shadow rule toggle)
			g := rng.Intn(G)
			tor := d.ToR[g]
			if len(overlay[tor]) > 0 {
				delete(overlay, tor)
			} else {
				overlay[tor] = []tf.Rule{{
					Match:    pkt.HostPrefix(bench.HostAddr(g, 0)),
					In:       topo.NodeNone,
					Out:      d.Hosts[g][0],
					Priority: 35,
				}}
			}
			changes = append(changes, incr.FIBUpdate(overlayFIBFor(baseFIB, overlay)))
		}

		step := fmt.Sprintf("step %d (kind %d)", step, kind)
		reports, err := sess.Apply(changes)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		compareReports(t, step, reports, baseline(t, sess, opts, true))
	}
	if tot := sess.TotalStats(); tot.Solves >= tot.TotalInvs {
		t.Fatalf("incremental path never saved work: %+v", tot)
	}
}

func TestSessionSoundnessDatacenterCaches(t *testing.T) {
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1, WithCaches: true})
	var invs []inv.Invariant
	for g := 0; g < G; g++ {
		invs = append(invs, d.DataIsolationInvariant(g))
	}
	invs = append(invs, d.IsolationInvariant(0, 1), d.IsolationInvariant(1, 0))
	opts := core.Options{Engine: core.EngineSAT, Workers: 2}

	sess, reports, err := incr.NewSession(d.Net, opts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "init", reports, baseline(t, sess, opts, true))

	saved := d.CacheBoxes[0]
	steps := []struct {
		name    string
		changes func() []incr.Change
	}{
		{"break cache 0", func() []incr.Change {
			broken := *saved
			d.CacheBoxes[0] = &broken
			d.DeleteCacheACLs(0, 0)
			return []incr.Change{incr.BoxSwap(d.Caches[0], &broken)}
		}},
		{"relabel guest (origin-agnostic dirty-all)", func() []incr.Change {
			return []incr.Change{incr.Relabel(d.Guests[1], "suspect-guest")}
		}},
		{"restore cache 0", func() []incr.Change {
			return []incr.Change{incr.BoxSwap(d.Caches[0], saved)}
		}},
		{"cache 0 down (fail-open)", func() []incr.Change {
			return []incr.Change{incr.NodeDown(d.Caches[0])}
		}},
		{"cache 0 back up", func() []incr.Change {
			return []incr.Change{incr.NodeUp(d.Caches[0])}
		}},
	}
	for _, st := range steps {
		reports, err := sess.Apply(st.changes())
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		compareReports(t, st.name, reports, baseline(t, sess, opts, true))
	}
}

func TestSessionSoundnessMultiTenant(t *testing.T) {
	const T = 3
	m := bench.NewMultiTenant(bench.MTConfig{Tenants: T, PubPerTenant: 2, PrivPerTenant: 2})
	var invs []inv.Invariant
	for a := 0; a < T; a++ {
		for b := 0; b < T; b++ {
			if a != b {
				invs = append(invs, m.PrivPrivInvariant(a, b), m.PubPrivInvariant(a, b), m.PrivPubInvariant(a, b))
			}
		}
	}
	opts := core.Options{Workers: 3} // auto engine

	sess, reports, err := incr.NewSession(m.Net, opts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "init", reports, baseline(t, sess, opts, true))

	// Make classes per-tenant so symmetry groups are fine-grained and the
	// firewall edits below genuinely propagate.
	var relabels []incr.Change
	for tn := 0; tn < T; tn++ {
		for _, vm := range m.PubVMs[tn] {
			relabels = append(relabels, incr.Relabel(vm, fmt.Sprintf("pub-%d", tn)))
		}
		for _, vm := range m.PrivVMs[tn] {
			relabels = append(relabels, incr.Relabel(vm, fmt.Sprintf("priv-%d", tn)))
		}
	}
	saved := m.Firewalls[0]
	steps := []struct {
		name    string
		changes func() []incr.Change
	}{
		{"per-tenant classes", func() []incr.Change { return relabels }},
		{"open tenant-0 private group", func() []incr.Change {
			fw := cloneFirewall(saved)
			fw.ACL = append([]mbox.ACLEntry{
				mbox.AllowEntry(pkt.Prefix{}, bench.TenantPrivPrefix(0)),
			}, fw.ACL...)
			return []incr.Change{incr.BoxSwap(m.VSwitchFW[0], fw)}
		}},
		{"inv add/remove", func() []incr.Change {
			return []incr.Change{
				incr.AddInvariant(inv.Reachability{Dst: m.PrivVMs[0][1], SrcAddr: bench.PubVMAddr(1, 0), Label: "probe"}),
				incr.RemoveInvariant(m.PrivPubInvariant(2, 1).Name()),
			}
		}},
		{"restore tenant-0 policy", func() []incr.Change {
			return []incr.Change{incr.BoxSwap(m.VSwitchFW[0], saved)}
		}},
		{"tenant-1 firewall down (fail-closed)", func() []incr.Change {
			return []incr.Change{incr.NodeDown(m.VSwitchFW[1])}
		}},
		{"tenant-1 firewall up", func() []incr.Change {
			return []incr.Change{incr.NodeUp(m.VSwitchFW[1])}
		}},
	}
	for _, st := range steps {
		reports, err := sess.Apply(st.changes())
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		compareReports(t, st.name, reports, baseline(t, sess, opts, true))
	}
}

func TestSessionSoundnessExplicitEngine(t *testing.T) {
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	invs := []inv.Invariant{
		d.IsolationInvariant(0, 1), d.IsolationInvariant(1, 0), d.IsolationInvariant(1, 2),
	}
	opts := core.Options{Engine: core.EngineExplicit, MaxSends: 2, Workers: 2}

	sess, reports, err := incr.NewSession(d.Net, opts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "init", reports, baseline(t, sess, opts, true))

	rng := rand.New(rand.NewSource(3))
	d.FWPrimary, d.FWBackup = cloneFirewall(d.FWPrimary), cloneFirewall(d.FWBackup)
	aff := d.DeleteRandomDenyRules(rng, 1)
	changes := []incr.Change{incr.BoxSwap(d.FW1, d.FWPrimary), incr.BoxSwap(d.FW2, d.FWBackup)}
	for _, pair := range aff {
		for _, g := range pair {
			for _, h := range d.Hosts[g] {
				changes = append(changes, incr.Relabel(h, d.Net.PolicyClass[h]))
			}
		}
	}
	reports, err = sess.Apply(changes)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "break", reports, baseline(t, sess, opts, true))

	reports, err = sess.Apply([]incr.Change{incr.NodeDown(d.IDS1)})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "ids down", reports, baseline(t, sess, opts, true))
}

func TestSessionNoSymmetry(t *testing.T) {
	// PolicyTiers 1 makes every host the same class, so class-based
	// signatures collide across distinct invariants — exactly the setting
	// NoSymmetry exists for, and the regression trap for entry keying: a
	// removal must not shift surviving invariants onto neighbours'
	// cached entries.
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1, PolicyTiers: 1})
	invs := d.AllIsolationInvariants()
	opts := core.Options{Engine: core.EngineSAT, Workers: 2}

	sess, reports, err := incr.NewSession(d.Net, opts, invs, incr.Options{NoSymmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "init", reports, baseline(t, sess, opts, false))

	reports, err = sess.Apply([]incr.Change{incr.NodeDown(d.FW1)})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "fw down", reports, baseline(t, sess, opts, false))

	// Make verdicts asymmetric across same-signature invariants, then
	// remove one invariant: survivors must keep their own entries (no
	// re-verification needed, and no inherited neighbour verdicts).
	backup := cloneFirewall(d.FWBackup)
	backup.ACL = deleteDeny(backup.ACL, 0, 1)
	reports, err = sess.Apply([]incr.Change{incr.BoxSwap(d.FW2, backup)})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "backup hole", reports, baseline(t, sess, opts, false))

	reports, err = sess.Apply([]incr.Change{incr.RemoveInvariant(invs[0].Name())})
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.LastApply(); st.DirtyInvariants != 0 {
		t.Fatalf("pure removal must not dirty survivors (keys shifted?): %+v", st)
	}
	compareReports(t, "remove", reports, baseline(t, sess, opts, false))

	// A duplicate of a survivor arrives, a host is relabeled and the
	// original leaves. The duplicate asserts what the original does, so it
	// joins the original's group and both sides report it as a Reused copy.
	for i, cs := range [][]incr.Change{
		{incr.AddInvariant(invs[1])},
		{incr.Relabel(d.Hosts[0][0], "isolated-0")},
		{incr.RemoveInvariant(invs[1].Name())},
	} {
		if reports, err = sess.Apply(cs); err != nil {
			t.Fatal(err)
		}
		if err := sess.GroupsAgree(); err != nil {
			t.Fatal(err)
		}
		want := baseline(t, sess, opts, false)
		compareReports(t, "churn", reports, want)
		if i == 0 && (!reused(reports, invs[1].Name()) || !reused(want, invs[1].Name())) {
			t.Fatalf("the duplicate of %s is not a Reused copy (session %v, from scratch %v)",
				invs[1].Name(), reused(reports, invs[1].Name()), reused(want, invs[1].Name()))
		}
	}
}

// reused reports whether some report of the invariant named name is a
// Reused copy.
func reused(reports []core.Report, name string) bool {
	return slices.ContainsFunc(reports, func(r core.Report) bool { return r.Reused && r.Invariant.Name() == name })
}

// TestMisboundBoxesRefused pins that a network binds at most one model per
// node, and only at a middlebox: with a second model at fw1, an edit of fw1
// would reach one model while slicing reads the other, so the verifier and
// the session refuse the network.
func TestMisboundBoxesRefused(t *testing.T) {
	for _, c := range []struct {
		name string
		bind func(d *bench.Datacenter) mbox.Instance
	}{
		{"second model at fw1", func(d *bench.Datacenter) mbox.Instance {
			return mbox.Instance{Node: d.FW1, Model: cloneFirewall(d.FWPrimary)}
		}},
		{"model at a host", func(d *bench.Datacenter) mbox.Instance {
			return mbox.Instance{Node: d.Hosts[0][0], Model: cloneFirewall(d.FWPrimary)}
		}},
	} {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
		d.Net.Boxes = append(d.Net.Boxes, c.bind(d))
		if _, err := core.NewVerifier(d.Net, core.Options{}); err == nil {
			t.Errorf("%s: the verifier accepted the network", c.name)
		}
		if _, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, d.AllIsolationInvariants(), incr.Options{}); err == nil {
			t.Errorf("%s: the session accepted the network", c.name)
		}
	}
}

// TestRelabelRefusesReservedClass pins that a relabel cannot declare the
// class an unlabeled node is signed and sliced under, nor one holding a
// signature's field separator, and that a refused relabel changes nothing.
func TestRelabelRefusesReservedClass(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := sess.GroupKeys()
	for _, class := range []string{fmt.Sprintf("node-%d", d.Hosts[2][0]), "tier|0"} {
		if _, err := sess.Apply([]incr.Change{incr.Relabel(d.Hosts[0][0], class)}); err == nil {
			t.Errorf("relabel to %q was accepted", class)
		}
		if got := sess.GroupKeys(); !slices.Equal(got, keys) {
			t.Fatalf("a refused relabel to %q moved the groups: %q, was %q", class, got, keys)
		}
	}
}

// deleteDeny removes the deny entry for client traffic srcGroup->dstGroup.
func deleteDeny(acl []mbox.ACLEntry, srcGroup, dstGroup int) []mbox.ACLEntry {
	src, dst := bench.ClientPrefix(srcGroup), bench.ClientPrefix(dstGroup)
	kept := acl[:0]
	for _, e := range acl {
		if e.Action == mbox.Deny && e.Src == src && e.Dst == dst {
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// TestSessionDirtyScope pins the dependency index's precision: a
// rack-local change must not dirty invariants over unrelated racks.
func TestSessionDirtyScope(t *testing.T) {
	const G = 4
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants() // 12 invariants, all singleton groups
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.LastApply(); st.DirtyInvariants != len(invs) {
		t.Fatalf("initial apply must verify everything: %+v", st)
	}

	// Relabeling group 0's host touches only invariants referencing it:
	// 2*(G-1) of G*(G-1).
	if _, err := sess.Apply([]incr.Change{incr.Relabel(d.Hosts[0][0], "isolated-0")}); err != nil {
		t.Fatal(err)
	}
	st := sess.LastApply()
	want := 2 * (G - 1)
	if st.DirtyInvariants != want {
		t.Fatalf("relabel dirtied %d invariants, want %d (stats %+v)", st.DirtyInvariants, want, st)
	}
	if st.DirtyInvariants == len(invs) {
		t.Fatal("dependency index dirtied everything for a rack-local change")
	}
}

// TestSessionVerdictCacheRevert pins the verdict cache: reverting a
// configuration change must be answered from cache, without re-solving.
func TestSessionVerdictCacheRevert(t *testing.T) {
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	invs := d.AllIsolationInvariants()
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}

	edited := cloneFirewall(d.FWPrimary)
	edited.ACL = edited.ACL[1:] // drop one deny entry
	if _, err := sess.Apply([]incr.Change{incr.BoxSwap(d.FW1, edited)}); err != nil {
		t.Fatal(err)
	}
	// The dropped entry names one group pair; only slices where it was
	// LIVE (both prefixes match a slice address) see a changed rule-read
	// projection and become dirty at all. The other pairs' effective
	// policy is unchanged — the prefix/rule-level dependency index proves
	// them clean without consulting the cache (RefinedClean), where the
	// node-granularity index would have dirtied every group through the
	// shared firewall node.
	st := sess.LastApply()
	if st.CacheMisses == 0 {
		t.Fatalf("the affected pair must re-solve: %+v", st)
	}
	if st.DirtyGroups >= st.Groups {
		t.Fatalf("pairs unaffected by the dropped entry must not even be dirtied: %+v", st)
	}
	if st.RefinedClean == 0 {
		t.Fatalf("rule-level refinement must keep unaffected pairs clean: %+v", st)
	}
	if st.CacheMisses+st.CacheHits+st.CanonShared != st.DirtyGroups {
		t.Fatalf("dirty groups must be solved, cached or inherited: %+v", st)
	}

	if _, err := sess.Apply([]incr.Change{incr.BoxSwap(d.FW1, d.FWPrimary)}); err != nil {
		t.Fatal(err)
	}
	if st := sess.LastApply(); st.CacheMisses != 0 || st.CacheHits+st.CanonShared != st.DirtyGroups {
		t.Fatalf("reverted configuration must be served from cache: %+v", st)
	}
}

// TestSessionUncacheableInvariant: an invariant type the fingerprint does
// not know stays correct (it just always re-solves).
type opaqueInvariant struct{ inv.SimpleIsolation }

func (o opaqueInvariant) Name() string { return "opaque-" + o.SimpleIsolation.Name() }

func TestSessionUncacheableInvariant(t *testing.T) {
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	si := d.IsolationInvariant(0, 1).(inv.SimpleIsolation)
	invs := []inv.Invariant{opaqueInvariant{si}}
	opts := core.Options{Engine: core.EngineSAT}

	sess, reports, err := incr.NewSession(d.Net, opts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "init", reports, baseline(t, sess, opts, true))
	// Dirty it twice with the same configuration: must re-solve (no cache)
	// yet stay correct.
	for i := 0; i < 2; i++ {
		if _, err := sess.Apply([]incr.Change{incr.BoxSwap(d.FW1, cloneFirewall(d.FWPrimary))}); err != nil {
			t.Fatal(err)
		}
		if st := sess.LastApply(); st.CacheHits != 0 {
			t.Fatalf("opaque invariant must never cache-hit: %+v", st)
		}
	}
	reports, err = sess.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "refresh", reports, baseline(t, sess, opts, true))
}

// TestRepresentativeRemovalReverifies: a group's verdicts and footprint are
// its representative's, so when the representative leaves the invariant set
// the next member must be verified in its own right — not inherit the
// departed invariant's entry, whose footprint is another tenant's slice. On
// both the Apply and the Propose/Commit path.
func TestRepresentativeRemovalReverifies(t *testing.T) {
	for _, txn := range []bool{false, true} {
		net, invs, err := netdesc.Build(netdesc.CloudVPC(netdesc.VPCConfig{Tenants: 6, Shapes: 1}), "")
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{}
		sess, reports, err := incr.NewSession(net, opts, invs, incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, "init", reports, baseline(t, sess, opts, true))
		steps := []incr.Change{
			incr.RemoveInvariant("t0-pub-reach"),
			incr.NodeDown(net.Topo.MustByName("t1-fw").ID),
		}
		for i, ch := range steps {
			step := fmt.Sprintf("txn=%v step %d", txn, i)
			if txn {
				if _, err := sess.Propose([]incr.Change{ch}); err != nil {
					t.Fatal(err)
				}
				reports, err = sess.Commit()
			} else {
				reports, err = sess.Apply([]incr.Change{ch})
			}
			if err != nil {
				t.Fatal(err)
			}
			want := baseline(t, sess, opts, true)
			compareReports(t, step, reports, want)
			compareWitnesses(t, step, reports, want)
		}
		if st := sess.LastApply(); st.DirtyGroups < 1 {
			t.Fatalf("txn=%v: node_down on the new representative's firewall dirtied no group: %+v", txn, st)
		}
	}
}
