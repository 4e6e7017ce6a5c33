package incr_test

// Tests of the engines a session holds across Applys: that they move with
// the transactional state (a rolled-back or failed shadow run leaves them
// untouched), and — as work counts, with no clock involved — that keeping
// them current costs what the change touches, not what the network holds.

import (
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// TestRollbackKeepsHeldEngines pins the hazard of holding engines across
// Applys: they must be restored with the FIB provider they were compiled
// from. A proposed forwarding change that is rolled back (or a propose
// that fails) leaves exactly the pre-propose engines in place — were the
// proposed ones to survive, the next Apply would re-verify against a
// forwarding state that no longer exists. A refused Apply moves nothing
// either; one that fails past validation drops them with the rest of the
// incremental state.
func TestRollbackKeepsHeldEngines(t *testing.T) {
	const G = 3
	opts := core.Options{Engine: core.EngineSAT}
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	failSolves := false
	sess, _, err := incr.NewSession(d.Net, opts, d.AllIsolationInvariants(), incr.Options{FaultHook: func(string) {
		if failSolves {
			panic("injected solve failure")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.HeldEngines()
	if len(before) != 1 || before[0] == nil {
		t.Fatalf("session holds %d engines after its first verification, want 1", len(before))
	}
	// Group 1's traffic skips the firewall at the aggregation switch.
	bypass := shadowRule(d, d.Agg, tf.Rule{Match: bench.ClientPrefix(1), In: topo.NodeNone, Out: d.ToR[1], Priority: 60})

	pr, err := sess.Propose([]incr.Change{bypass})
	if err != nil {
		t.Fatal(err)
	}
	if pr.NewViolations == 0 {
		t.Fatal("the firewall bypass violated nothing: the shadow run did not see the proposed tables")
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := sess.HeldEngines(); !slices.Equal(got, before) {
		t.Fatal("rollback left the proposed engines in place")
	}

	// A firewall edit re-verifies groups on the held engines and touches
	// none of them.
	fw := cloneFirewall(d.FWPrimary)
	fw.ACL = deleteDeny(fw.ACL, 2, 1)
	reports, err := sess.Apply([]incr.Change{incr.BoxSwap(d.FW1, fw)})
	if err != nil {
		t.Fatal(err)
	}
	if sess.LastApply().DirtyGroups == 0 {
		t.Fatal("the firewall edit re-verified nothing")
	}
	compareReports(t, "edit after rollback", reports, baseline(t, sess, opts, true))
	if got := sess.HeldEngines(); !slices.Equal(got, before) {
		t.Fatal("a change-set with no forwarding or liveness change replaced an engine")
	}

	// A propose that fails half-way through its mutations is discarded.
	if _, err := sess.Propose([]incr.Change{bypass, incr.BoxRemove(d.Agg)}); err == nil {
		t.Fatal("removing a box from a switch must fail")
	}
	if got := sess.HeldEngines(); !slices.Equal(got, before) {
		t.Fatal("a failed propose left its engines in place")
	}

	// A change-set the session refuses is refused whole: the provider is
	// not swapped and the engines stay.
	if _, err := sess.Apply([]incr.Change{bypass, incr.BoxRemove(d.Agg)}); err == nil {
		t.Fatal("removing a box from a switch must fail")
	}
	if got := sess.HeldEngines(); !slices.Equal(got, before) {
		t.Fatal("a refused Apply replaced its engines")
	}
	if _, err := sess.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if st := sess.LastApply(); st.TablesCompiled != 0 || st.DirtyGroups != 0 {
		t.Fatalf("a refused Apply left work behind: %+v", st)
	}

	// An Apply that fails past validation has installed its changes (the
	// provider is swapped, the session says so) and must drop the engines
	// with the rest: the next Apply compiles and verifies from scratch.
	failSolves = true
	if _, err := sess.Apply([]incr.Change{bypass}); err == nil {
		t.Fatal("the injected solve failure must fail the Apply")
	}
	failSolves = false
	if got := sess.HeldEngines(); got != nil {
		t.Fatal("a failed Apply kept its engines")
	}
	reports, err = sess.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "after failed apply", reports, baseline(t, sess, opts, true))
	if st := sess.LastApply(); st.TablesCompiled == 0 || len(sess.HeldEngines()) != 1 {
		t.Fatalf("recovery did not recompile: %+v", st)
	}
}

// routeStream announces and withdraws external routes at an ISP
// backbone's core switch, one forwarding-state provider per update. As
// the ownership contract asks, each new FIB shares every rule list it did
// not change with the one before.
type routeStream struct {
	net      *core.Network
	sess     *incr.Session
	base     tf.FIB
	backbone topo.NodeID
	fw       topo.NodeID
	active   []tf.Rule
	next     int
}

func newRouteStream(t testing.TB, subnets int, sopts incr.Options) *routeStream {
	t.Helper()
	net, invs, err := netdesc.Build(netdesc.ISPBackbone(netdesc.ISPBackboneConfig{Peerings: 16, Subnets: subnets}), "")
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := incr.NewSession(net, core.Options{}, invs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	return &routeStream{net: net, sess: sess, base: net.FIBFor(topo.NoFailures()),
		backbone: net.Topo.MustByName("backbone").ID, fw: net.Topo.MustByName("fw3").ID}
}

// announce adds a /24 in 20.0.0.0/8 — space no slice reads; every other
// /24, so no two announced prefixes share a boundary — and withdraw
// removes the oldest one still announced.
func (r *routeStream) announce() incr.Change {
	r.next++
	p := pkt.Prefix{Addr: pkt.Addr(20<<24 | uint32(r.next)<<9), Len: 24}
	r.active = append(slices.Clone(r.active), tf.Rule{Match: p, In: topo.NodeNone, Out: r.fw, Priority: 10})
	return r.update()
}

func (r *routeStream) withdraw() incr.Change {
	r.active = slices.Clone(r.active[1:])
	return r.update()
}

func (r *routeStream) update() incr.Change {
	fib := make(tf.FIB, len(r.base))
	for n, rs := range r.base {
		fib[n] = rs
	}
	fib[r.backbone] = append(slices.Clone(r.active), r.base[r.backbone]...)
	return incr.FIBUpdate(func(topo.FailureScenario) tf.FIB { return fib })
}

func (r *routeStream) apply(t testing.TB, changes ...incr.Change) incr.ApplyStats {
	t.Helper()
	if _, err := r.sess.Apply(changes); err != nil {
		t.Fatal(err)
	}
	return r.sess.LastApply()
}

// TestApplyWorkFollowsTheChange states "Apply cost is proportional to the
// change" as counts that cannot flake: how many tables an Apply compiles
// depends on what the change-set names, and neither that count nor the
// number of allocations of a route update depends on the network's size.
func TestApplyWorkFollowsTheChange(t *testing.T) {
	type work struct {
		compiled int
		allocs   float64
	}
	routeUpdate := map[int]work{}
	for _, subnets := range []int{64, 255} {
		r := newRouteStream(t, subnets, incr.Options{})
		if st := r.apply(t); st.TablesCompiled != 0 {
			t.Fatalf("%d subnets: an empty change-set compiled %d tables", subnets, st.TablesCompiled)
		}

		// A firewall edit changes no forwarding state, and puts the groups
		// whose footprint holds that firewall in front of classify and no
		// other: none for fw3, one of the three for fw1.
		dead := pkt.Prefix{Addr: pkt.MustParseAddr("10.99.0.0"), Len: 24}
		for name, readers := range map[string]int{"fw3": 0, "fw1": 1} {
			node := r.net.Topo.MustByName(name).ID
			fw := cloneFirewall(r.net.Boxes[slices.IndexFunc(r.net.Boxes, func(b mbox.Instance) bool { return b.Node == node })].Model.(*mbox.LearningFirewall))
			fw.ACL = append([]mbox.ACLEntry{mbox.DenyEntry(dead, dead)}, fw.ACL...)
			before := r.sess.Classified()
			st := r.apply(t, incr.BoxSwap(node, fw))
			if st.TablesCompiled != 0 || st.DirtyGroups != 0 {
				t.Fatalf("%d subnets: a dead edit at %s: %+v", subnets, name, st)
			}
			if got := r.sess.Classified() - before; got != readers || r.sess.GroupsReading(node) != readers || readers >= st.Groups {
				t.Fatalf("%d subnets: an edit at %s classified %d groups; %d of %d read it, want %d",
					subnets, name, got, r.sess.GroupsReading(node), st.Groups, readers)
			}
		}

		// Neither does a liveness toggle when the provider returns the
		// same tables for every scenario: the new scenario is a new view.
		held := r.sess.HeldEngines()[0]
		swM := r.net.Topo.MustByName("swM5").ID
		if st := r.apply(t, incr.NodeDown(swM)); st.TablesCompiled != 0 {
			t.Fatalf("%d subnets: node-down on a scenario-independent FIB compiled %d tables", subnets, st.TablesCompiled)
		}
		if now := r.sess.HeldEngines()[0]; now == held || now.Tables() != held.Tables() {
			t.Fatalf("%d subnets: node-down must yield a new view over the same tables", subnets)
		}
		r.apply(t, incr.NodeUp(swM))

		// A route update at one owner compiles that owner's table.
		if st := r.apply(t, r.announce()); st.TablesCompiled != 1 || st.DirtyGroups != 0 {
			t.Fatalf("%d subnets: a one-owner route update: %+v", subnets, st)
		}

		// Steady state: a full overlay, announces and withdraws in turn.
		for len(r.active) < 32 {
			r.apply(t, r.announce())
		}
		changes := make([]incr.Change, 0, 64)
		for len(changes) < cap(changes) {
			changes = append(changes, r.announce(), r.withdraw())
		}
		w := work{compiled: 1}
		i := 0
		before := r.sess.Classified()
		w.allocs = testing.AllocsPerRun(len(changes)-1, func() {
			if st := r.apply(t, changes[i]); st.TablesCompiled != 1 || st.DirtyGroups != 0 {
				t.Fatalf("%d subnets, update %d: %+v", subnets, i, st)
			}
			i++
		})
		// A route for a prefix no slice reads is answered by the posting
		// lists alone: no group is visited to be told it is clean.
		if got := r.sess.Classified() - before; got != 0 {
			t.Fatalf("%d subnets: %d zero-dirty route updates classified %d groups", subnets, i, got)
		}
		if w.allocs > 21 {
			t.Fatalf("%d subnets: a route update allocates %v times, over 21", subnets, w.allocs)
		}
		routeUpdate[subnets] = w
		t.Logf("%d subnets: route update %+v", subnets, w)
	}
	if routeUpdate[64] != routeUpdate[255] {
		t.Fatalf("a route update's work depends on the network's size: 64 subnets %+v, 255 subnets %+v",
			routeUpdate[64], routeUpdate[255])
	}
}

// TestProposeAfterRouteChurn: the session keeps nothing that grows with
// the prefixes ever announced, so a proposal costs the same after route
// churn as before it. A dead firewall edit proposed and rolled back on the
// ISP backbone allocates no more after 2 000 fresh-prefix route updates
// than it did before them.
func TestProposeAfterRouteChurn(t *testing.T) {
	r := newRouteStream(t, 64, incr.Options{})
	fw := cloneFirewall(r.net.Boxes[slices.IndexFunc(r.net.Boxes, func(b mbox.Instance) bool { return b.Node == r.fw })].Model.(*mbox.LearningFirewall))
	dead := pkt.Prefix{Addr: pkt.MustParseAddr("10.99.0.0"), Len: 24}
	fw.ACL = append([]mbox.ACLEntry{mbox.DenyEntry(dead, dead)}, fw.ACL...)
	round := func() {
		if _, err := r.sess.Propose([]incr.Change{incr.BoxSwap(r.fw, fw)}); err != nil {
			t.Fatal(err)
		}
		if err := r.sess.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	allocs, bytes := measure(round)
	for r.next < 2000 {
		r.apply(t, r.announce())
		if len(r.active) > 32 {
			r.apply(t, r.withdraw())
		}
	}
	round()
	allocsAfter, bytesAfter := measure(round)
	t.Logf("dead-edit propose+rollback: %d allocs, %d bytes; after %d announces %d allocs, %d bytes",
		allocs, bytes, r.next, allocsAfter, bytesAfter)
	if allocsAfter > allocs || bytesAfter > bytes {
		t.Fatalf("after %d announced prefixes a dead-edit proposal allocates %d times, %d bytes; before, %d times, %d bytes",
			r.next, allocsAfter, bytesAfter, allocs, bytes)
	}
}

// BenchmarkRouteUpdate is one Session.Apply per route update at the
// benchmark's backbone size (vmnperf's isp-route-serial, in miniature).
func BenchmarkRouteUpdate(b *testing.B) {
	r := newRouteStream(b, 255, incr.Options{})
	for len(r.active) < 128 {
		r.apply(b, r.announce())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; {
		b.StopTimer()
		changes := make([]incr.Change, 0, 256)
		for len(changes) < cap(changes) {
			changes = append(changes, r.announce(), r.withdraw())
		}
		b.StartTimer()
		for j := 0; j < len(changes) && i < b.N; i, j = i+1, j+1 {
			r.apply(b, changes[j])
		}
	}
}
