package incr_test

// Batching/coalescing tests: the Coalesce unit rules (last-writer-wins,
// FIB collapse, per-node bind runs, invariant names, survivor
// ordering) and the session-level guarantees — an add-then-delete pair nets out to zero
// dirtied groups, N priority rewrites of one rule dirty once, and a
// batch spanning two tables dirties both (coalescing merges providers,
// never diffs).

import (
	"reflect"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// allBound says every node holds a model before the list.
func allBound(topo.NodeID) bool { return true }

func TestCoalesceLastWriterWins(t *testing.T) {
	a, b := topo.NodeID(1), topo.NodeID(2)
	out, from := incr.Coalesce([]incr.Change{
		incr.NodeDown(a),
		incr.Relabel(a, "x"),
		incr.NodeUp(a),
		incr.NodeDown(b),
		incr.Relabel(a, "y"),
	}, allBound)
	want := []incr.Change{incr.NodeUp(a), incr.NodeDown(b), incr.Relabel(a, "y")}
	if len(out) != len(want) {
		t.Fatalf("survivors %v, want %v", out, want)
	}
	if !reflect.DeepEqual(from, []int{2, 3, 4}) {
		t.Fatalf("survivors come from request indices %v, want [2 3 4]", from)
	}
	for i := range want {
		if out[i].Kind != want[i].Kind || out[i].Node != want[i].Node || out[i].Class != want[i].Class {
			t.Fatalf("survivor %d = %+v, want %+v", i, out[i], want[i])
		}
	}
}

func TestCoalesceFIBCollapse(t *testing.T) {
	n1, n2 := topo.NodeID(1), topo.NodeID(2)
	p1 := func(topo.FailureScenario) tf.FIB { return tf.FIB{n1: nil} }
	p2 := func(topo.FailureScenario) tf.FIB { return tf.FIB{n2: nil} }
	out, _ := incr.Coalesce([]incr.Change{
		incr.FIBUpdate(p1),
		incr.NodeDown(n1),
		incr.FIBUpdate(p2),
	}, allBound)
	if len(out) != 2 {
		t.Fatalf("got %d survivors, want 2", len(out))
	}
	// Survivor order: the FIB change kept is the LAST one, after the
	// interleaved liveness change.
	if out[0].Kind != incr.KindNodeDown || out[1].Kind != incr.KindFIB {
		t.Fatalf("survivor order wrong: %v, %v", out[0].Kind, out[1].Kind)
	}
	fib := out[1].FIBFor(topo.FailureScenario{})
	if _, ok := fib[n2]; !ok || len(fib) != 1 {
		t.Fatalf("surviving provider must be the last one: got tables for %v", fib)
	}
}

func TestCoalesceReconfigMerge(t *testing.T) {
	n := topo.NodeID(3)
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	first, last := d.FWBackup, d.FWPrimary
	out, _ := incr.Coalesce([]incr.Change{
		incr.BoxSwap(n, first),
		incr.BoxSwap(n, last),
	}, allBound)
	if len(out) != 1 {
		t.Fatalf("got %d survivors, want 1", len(out))
	}
	if out[0].Kind != incr.KindBoxReconfig || out[0].Model != last {
		t.Fatalf("the last swapped-in model must win: %+v", out[0])
	}

	// Membership changes end a run only at their own node: another node's
	// box_remove leaves n's run whole, and n's own box_remove drops what it
	// was last configured as. A bind at a node holding no model — after its
	// box_remove, or before the list — is a first bind: it keeps its place
	// and opens no run, so it is never dropped.
	other := topo.NodeID(4)
	kinds := func(cs []incr.Change) (ks []incr.Kind) {
		for _, c := range cs {
			ks = append(ks, c.Kind)
		}
		return ks
	}
	for _, tc := range []struct {
		name  string
		bound bool // whether n holds a model before the list
		in    []incr.Change
		want  []incr.Kind
	}{
		{"other node's remove", true, []incr.Change{incr.BoxSwap(n, first), incr.BoxRemove(other), incr.BoxSwap(n, last)},
			[]incr.Kind{incr.KindBoxRemove, incr.KindBoxReconfig}},
		{"own remove drops the run", true, []incr.Change{incr.BoxSwap(n, first), incr.BoxSwap(n, last), incr.BoxRemove(n)},
			[]incr.Kind{incr.KindBoxRemove}},
		{"own remove makes the next bind a first bind", true, []incr.Change{incr.BoxSwap(n, first), incr.BoxRemove(n), incr.BoxSwap(n, first), incr.BoxSwap(n, first), incr.BoxSwap(n, last)},
			[]incr.Kind{incr.KindBoxRemove, incr.KindBoxReconfig, incr.KindBoxReconfig}},
		{"unbound node's first bind stays", false, []incr.Change{incr.BoxSwap(n, first), incr.BoxSwap(n, last), incr.BoxRemove(n)},
			[]incr.Kind{incr.KindBoxReconfig, incr.KindBoxRemove}},
	} {
		bound := func(m topo.NodeID) bool { return m != n || tc.bound }
		out, _ := incr.Coalesce(tc.in, bound)
		if got := kinds(out); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: survivors %v, want %v", tc.name, got, tc.want)
		}
		if k := len(out) - 1; out[k].Kind == incr.KindBoxReconfig && out[k].Model != last {
			t.Errorf("%s: the run's last swapped-in model was lost: %+v", tc.name, out[k])
		}
		if again, _ := incr.Coalesce(out, bound); !reflect.DeepEqual(kinds(again), tc.want) {
			t.Errorf("%s: not idempotent: %v", tc.name, kinds(again))
		}
	}
}

// An inv_remove takes every invariant of its name with it, so the earlier
// adds and removes of that name have no effect left; other names and later
// adds keep their place.
func TestCoalesceInvariantNames(t *testing.T) {
	add := func(name string) incr.Change {
		return incr.AddInvariant(inv.Reachability{Dst: 1, SrcAddr: 2, Label: name})
	}
	out, _ := incr.Coalesce([]incr.Change{
		incr.RemoveInvariant("a"), add("a"), add("b"), add("a"), incr.RemoveInvariant("a"), add("a"),
		{Kind: incr.KindInvAdd}, // refused by validate, not Coalesce's to judge
	}, allBound)
	if len(out) != 4 {
		t.Fatalf("got %d survivors, want 4: %+v", len(out), out)
	}
	if out[0].Invariant.Name() != "b" || out[1].Kind != incr.KindInvRemove || out[1].Name != "a" ||
		out[2].Invariant.Name() != "a" || out[3].Invariant != nil {
		t.Fatalf("survivors %+v, want add b, remove a, add a, the nil add", out)
	}
}

// TestApplyBatchAddDeleteAnnihilates: a batch that installs a rule and
// then reverts to the original forwarding state coalesces to a provider
// identical to the session's — zero groups dirtied, zero solves.
func TestApplyBatchAddDeleteAnnihilates(t *testing.T) {
	const G = 4
	dp, sp := newDCSession(t, G)

	add := shadowRule(dp, dp.Agg,
		tf.Rule{Match: bench.ClientPrefix(0), In: topo.NodeNone, Out: dp.FW1, Priority: 11})
	del := incr.FIBUpdate(overlayFIBFor(dp.Net.FIBFor, nil))
	reports, err := sp.ApplyBatch([]incr.Change{add, del})
	if err != nil {
		t.Fatal(err)
	}
	st := sp.LastApply()
	if st.Enqueued != 2 || st.Coalesced != 1 || st.Changes != 1 {
		t.Fatalf("add-then-delete must coalesce 2 changes to 1: %+v", st)
	}
	if st.DirtyGroups != 0 || st.DirtyInvariants != 0 {
		t.Fatalf("annihilated batch dirtied %d groups: %+v", st.DirtyGroups, st)
	}
	compareReports(t, "annihilate", reports, baseline(t, sp, core.Options{Engine: core.EngineSAT}, true))
}

// TestApplyBatchPriorityRewritesDirtyOnce: N successive rewrites of one
// steering rule collapse to one diff and one re-verification, with the
// same dirty set a single apply of the final rule would produce.
func TestApplyBatchPriorityRewritesDirtyOnce(t *testing.T) {
	const G = 4
	dp, sp := newDCSession(t, G)

	var batch []incr.Change
	for i := 0; i < 4; i++ {
		batch = append(batch, shadowRule(dp, dp.Agg,
			tf.Rule{Match: bench.ClientPrefix(0), In: topo.NodeNone, Out: dp.FW1, Priority: 11 + i}))
	}
	reports, err := sp.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	st := sp.LastApply()
	if st.Enqueued != 4 || st.Coalesced != 3 || st.Changes != 1 {
		t.Fatalf("4 rewrites must coalesce to 1 change: %+v", st)
	}
	if want := 2 * (G - 1); st.DirtyInvariants != want {
		t.Fatalf("rewrite batch dirtied %d invariants, want %d (one diff against the final rule)",
			st.DirtyInvariants, want)
	}
	compareReports(t, "rewrites", reports, baseline(t, sp, core.Options{Engine: core.EngineSAT}, true))

	tot := sp.TotalStats()
	if tot.Batches != 1 || tot.Enqueued != 4 || tot.Coalesced != 3 {
		t.Fatalf("totals accounting wrong: %+v", tot)
	}
}

// TestApplyBatchCrossTable: coalescing merges FIB *providers*, never
// diffs — a batch whose updates land in two different tables dirties
// the readers of both tables independently.
func TestApplyBatchCrossTable(t *testing.T) {
	const G = 4
	dp, sp := newDCSession(t, G)

	// Update 1 touches tor0's table (same-next-hop specific for group 1:
	// dirties exactly the g0<->g1 pair). Update 2 layers a steering rule
	// for group 2 at the aggregation switch on top of it (dirties every
	// pair with a g2 endpoint).
	o1 := map[topo.NodeID][]tf.Rule{
		dp.ToR[0]: {{Match: bench.ClientPrefix(1), In: topo.NodeNone, Out: dp.Agg, Priority: 20}},
	}
	o2 := map[topo.NodeID][]tf.Rule{
		dp.ToR[0]: o1[dp.ToR[0]],
		dp.Agg:    {{Match: bench.ClientPrefix(2), In: topo.NodeNone, Out: dp.FW1, Priority: 11}},
	}
	reports, err := sp.ApplyBatch([]incr.Change{
		incr.FIBUpdate(overlayFIBFor(dp.Net.FIBFor, o1)),
		incr.FIBUpdate(overlayFIBFor(dp.Net.FIBFor, o2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sp.LastApply()
	if st.Changes != 1 || st.Coalesced != 1 {
		t.Fatalf("cross-table batch must still collapse to one provider: %+v", st)
	}
	// 2 invariants from the tor0 read-atom change + 2*(G-1) with a g2
	// endpoint from the agg steering rule — disjoint sets, both dirtied.
	if want := 2 + 2*(G-1); st.DirtyInvariants != want {
		t.Fatalf("cross-table batch dirtied %d invariants, want %d (both tables diffed)",
			st.DirtyInvariants, want)
	}
	compareReports(t, "cross-table", reports, baseline(t, sp, core.Options{Engine: core.EngineSAT}, true))
}

// TestBatchExplainIndexesTheRequest: explain names the dirtying change by
// its place in the batch as sent, not in the coalesced list Apply ran —
// here the eliminated node_down h2-0 would shift every index down by one.
func TestBatchExplainIndexesTheRequest(t *testing.T) {
	d, s := newDCSession(t, 3)
	h := d.Hosts[2][0]
	if _, err := s.ApplyBatch([]incr.Change{incr.NodeDown(h), incr.NodeUp(h), incr.NodeDown(d.FW1)}); err != nil {
		t.Fatal(err)
	}
	recs := s.Explain()
	if len(recs) == 0 {
		t.Fatal("node_down fw1 dirtied nothing")
	}
	for _, r := range recs {
		if r.Cause.Change != 2 || r.Cause.ChangeDesc != "node-down fw1" {
			t.Fatalf("record %s names change %d (%q), want 2 (node-down fw1)", r.GroupKey, r.Cause.Change, r.Cause.ChangeDesc)
		}
	}
}
