package incr_test

// Scoped relabel dirtying under origin-agnostic boxes. Historically any
// relabel on a network containing an origin-agnostic box dirtied EVERY
// invariant group (slice computation consults the policy-class map for
// §4.1 representatives, so the session assumed any slice could grow).
// Session.relabelImpact now scopes that: only relabels that mint a
// brand-new class out of a surviving one still dirty everything; all
// other relabels dirty at most the footprints of the relabeled node and
// the displaced representative of its destination class — and a pure
// rename of a class no other node carries dirties nothing at all. Each
// test pins the provenance (Explain) and closes with the Apply-vs-fresh
// differential that guards the whole incremental path.

import (
	"maps"
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// cacheTriangle is a minimal origin-agnostic network: three hosts behind
// one switch whose rack-local forwarding detours through a content cache
// (the datacenter idiom), h0/h1 in class "red", h2 in class "blue".
func cacheTriangle() (*core.Network, []inv.Invariant, []topo.NodeID) {
	t := topo.New()
	sw := t.AddSwitch("sw")
	cacheN := t.AddMiddlebox("cache", "cache")
	t.AddLink(cacheN, sw)
	addrs := []pkt.Addr{
		pkt.MustParseAddr("10.0.0.1"),
		pkt.MustParseAddr("10.0.0.2"),
		pkt.MustParseAddr("10.0.0.3"),
	}
	names := []string{"h0", "h1", "h2"}
	var hosts []topo.NodeID
	fib := tf.FIB{}
	for i, name := range names {
		h := t.AddHost(name, addrs[i])
		t.AddLink(h, sw)
		hosts = append(hosts, h)
		p := pkt.HostPrefix(addrs[i])
		fib.Add(sw, tf.Rule{Match: p, In: cacheN, Out: h, Priority: 40})
		fib.Add(sw, tf.Rule{Match: p, In: topo.NodeNone, Out: cacheN, Priority: 30})
	}
	net := &core.Network{
		Topo:        t,
		Boxes:       []mbox.Instance{{Node: cacheN, Model: mbox.NewContentCache("cache")}},
		Registry:    pkt.NewRegistry(),
		PolicyClass: map[topo.NodeID]string{hosts[0]: "red", hosts[1]: "red", hosts[2]: "blue"},
		FIBFor:      func(topo.FailureScenario) tf.FIB { return fib },
	}
	invs := []inv.Invariant{
		inv.Reachability{Dst: hosts[0], SrcAddr: addrs[1], Label: "reach h1->h0"},
		inv.Reachability{Dst: hosts[2], SrcAddr: addrs[0], Label: "reach h0->h2"},
		inv.DataIsolation{Dst: hosts[2], Origin: addrs[0], Label: "data h2!origin=h0"},
	}
	return net, invs, hosts
}

// Moving a host into an existing, populated class while its old class
// survives must not fall back to full re-verification: the node channel
// carries the relabeled node and the displaced representative instead.
func TestRelabelExistingClassNoFullDirty(t *testing.T) {
	net, invs, hosts := cacheTriangle()
	opts := core.Options{Engine: core.EngineSAT}
	sess, reports, err := incr.NewSession(net, opts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "init", reports, baseline(t, sess, opts, true))

	// h1: red -> blue. Old class keeps h0, new class already has h2 (the
	// displaced representative: h1's ID is smaller).
	reports, err = sess.Apply([]incr.Change{incr.Relabel(hosts[1], "blue")})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sess.Explain() {
		if rec.Cause.Reason == incr.CauseFull {
			t.Fatalf("relabel into an existing class caused full dirtying: %+v", rec.Cause)
		}
	}
	compareReports(t, "relabel h1->blue", reports, baseline(t, sess, opts, true))

	// And back out again: blue -> red (h2 stays blue, h0 still red).
	reports, err = sess.Apply([]incr.Change{incr.Relabel(hosts[1], "red")})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sess.Explain() {
		if rec.Cause.Reason == incr.CauseFull {
			t.Fatalf("relabel back caused full dirtying: %+v", rec.Cause)
		}
	}
	compareReports(t, "relabel h1->red", reports, baseline(t, sess, opts, true))
}

// Relabeling a host that is neither referenced by any invariant nor a
// class representative (it is not the minimum-ID member of either class)
// moves no slice and must dirty nothing — the case the historical
// dirty-all rule paid for most dearly.
func TestRelabelNonRepresentativeDirtiesNothing(t *testing.T) {
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 2, WithCaches: true})
	var invs []inv.Invariant
	for g := 0; g < G; g++ {
		invs = append(invs, d.DataIsolationInvariant(g))
	}
	for a := 0; a < G; a++ {
		for b := 0; b < G; b++ {
			if a != b {
				invs = append(invs, d.IsolationInvariant(a, b))
			}
		}
	}
	opts := core.Options{Engine: core.EngineSAT, Workers: 2}
	sess, reports, err := incr.NewSession(d.Net, opts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "init", reports, baseline(t, sess, opts, true))

	// h2-1 is the second host of group 2: h2-0 remains tier-2's minimum
	// (its representative), and tier-0's representative h0-0 has a
	// smaller ID, so no slice membership can move.
	reports, err = sess.Apply([]incr.Change{incr.Relabel(d.Hosts[2][1], "tier-0")})
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.LastApply(); st.DirtyGroups != 0 {
		t.Fatalf("relabel of a non-representative host dirtied %d/%d groups", st.DirtyGroups, st.Groups)
	}
	compareReports(t, "relabel h2-1->tier-0", reports, baseline(t, sess, opts, true))
}

// The pinned scenario from the soundness suite: renaming a guest's
// singleton class. No other node carries either the old or the new
// label, so representative selection is invariant — nothing may arrive
// through the full or node channels. (Symmetry regrouping may still
// re-verify the invariants that reference the guest, via new_group.)
func TestRelabelPureRenameScopedDirty(t *testing.T) {
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

	solvesBefore := sess.TotalStats().Solves
	reports, err = sess.Apply([]incr.Change{incr.Relabel(d.Guests[1], "suspect-guest")})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sess.Explain() {
		switch rec.Cause.Reason {
		case incr.CauseFull, incr.CauseNode:
			t.Fatalf("pure class rename dirtied through %q: %+v", rec.Cause.Reason, rec.Cause)
		}
	}
	if st := sess.LastApply(); st.DirtyGroups >= st.Groups {
		t.Fatalf("pure class rename dirtied all %d groups", st.Groups)
	}
	if solves := sess.TotalStats().Solves; solves != solvesBefore {
		t.Fatalf("pure class rename re-solved %d checks (slices are unchanged; caches must absorb it)", solves-solvesBefore)
	}
	compareReports(t, "rename guest class", reports, baseline(t, sess, opts, true))
}

// Minting a brand-new class out of a surviving populated one makes the
// relabeled node a mandatory representative in every origin-agnostic
// slice — the one case that must still dirty everything.
func TestRelabelFreshClassDirtiesAll(t *testing.T) {
	const G = 3
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 2, WithCaches: true})
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

	// h1-0 leaves tier-1 (which keeps h1-1) for the fresh "quarantine"
	// class: it becomes a new §4.1 representative everywhere.
	reports, err = sess.Apply([]incr.Change{incr.Relabel(d.Hosts[1][0], "quarantine")})
	if err != nil {
		t.Fatal(err)
	}
	recs := sess.Explain()
	if len(recs) == 0 {
		t.Fatal("fresh-class relabel re-verified nothing")
	}
	for _, rec := range recs {
		if rec.Cause.Reason != incr.CauseFull {
			t.Fatalf("fresh-class relabel dirtied through %q, want %q", rec.Cause.Reason, incr.CauseFull)
		}
	}
	compareReports(t, "relabel h1-0->quarantine", reports, baseline(t, sess, opts, true))
}

// TestRelabelFollowsItsInvariants: a relabel's partition work follows the
// invariants that name the relabeled node, not the invariant count. On the
// CloudVPC, relabeling one tenant's public host computes exactly one
// signature per invariant naming it, itself or through its address, and
// rebuilds exactly the group records whose membership moved — the same
// counts at 256 and at 2 048 tenants, through Apply and through
// Propose+Rollback alike.
func TestRelabelFollowsItsInvariants(t *testing.T) {
	type work struct{ signed, rewritten, naming, moved int }
	measure := func(tenants int) (applied, proposed work) {
		sess, pairs := vpcPairs(t, tenants)
		relabel := pairs["relabel"][0][:1]
		n := relabel[0].Node
		naming := 0
		for _, i := range sess.Invariants() {
			names := slices.Contains(i.Nodes(), n)
			for _, a := range i.RefAddrs() {
				if h, ok := sess.Network().Topo.HostByAddr(a); ok && h.ID == n {
					names = true
				}
			}
			if names {
				naming++
			}
		}
		round := func(f func() error) work {
			signed, rewritten := sess.RegroupWork()
			before := sess.GroupMembers()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			after := sess.GroupMembers()
			w := work{naming: naming}
			w.signed, w.rewritten = sess.RegroupWork()
			w.signed -= signed
			w.rewritten -= rewritten
			for key, members := range after {
				if !slices.Equal(members, before[key]) {
					w.moved++
				}
			}
			if err := sess.GroupsAgree(); err != nil {
				t.Fatal(err)
			}
			return w
		}
		var shadow map[string][]string
		proposed = round(func() error {
			if _, err := sess.Propose(relabel); err != nil {
				return err
			}
			shadow = sess.PendingGroupMembers()
			return sess.Rollback()
		})
		applied = round(func() error {
			_, err := sess.Apply(relabel)
			return err
		})
		// The shadow's partition is the one the Apply reached.
		if after := sess.GroupMembers(); !maps.EqualFunc(shadow, after, slices.Equal) {
			t.Fatalf("%d tenants: the proposal's groups differ from the applied ones", tenants)
		}
		proposed.moved = applied.moved
		return applied, proposed
	}
	small, _ := measure(256)
	applied, proposed := measure(2048)
	t.Logf("relabel at 2048 tenants: %+v applied, %+v proposed", applied, proposed)
	for _, w := range []work{applied, proposed} {
		if w.signed != w.naming || w.rewritten != w.moved || w.naming == 0 || w.moved == 0 {
			t.Errorf("a relabel computed %d signatures for %d invariants naming the node and rebuilt %d records for %d that moved", w.signed, w.naming, w.rewritten, w.moved)
		}
	}
	if applied != small || proposed != small {
		t.Errorf("a relabel's partition work follows the network: %+v at 256 tenants, %+v applied and %+v proposed at 2048", small, applied, proposed)
	}
}

// A failed Apply drops all incremental state, the node index too: a list
// left out of step with the invariants is rebuilt by the next Apply, so a
// relabel after it re-signs every invariant naming the node.
func TestInvalidateRebuildsTheNodeIndex(t *testing.T) {
	sess, pairs := vpcPairs(t, 16)
	relabel := pairs["relabel"][0][:1]
	sess.BreakNodeIndex(relabel[0].Node)
	if _, err := sess.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if err := sess.GroupsAgree(); err != nil {
		t.Fatal(err)
	}
	signed, _ := sess.RegroupWork()
	if _, err := sess.Apply(relabel); err != nil {
		t.Fatal(err)
	}
	if err := sess.GroupsAgree(); err != nil {
		t.Fatal(err)
	}
	if after, _ := sess.RegroupWork(); after == signed {
		t.Fatal("the relabel re-signed no invariant")
	}
}
