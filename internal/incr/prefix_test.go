package incr_test

// Precision tests for the prefix/rule-level dependency index: changes at
// SHARED elements (the aggregation switch every slice crosses, the global
// firewall every pair traverses) must dirty exactly the groups whose read
// atoms or rule-read projections the change touches, with
// ApplyStats.RefinedClean counting the groups element-level dirtying would
// have re-verified on top.

import (
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// newDCSession builds a SAT-engine session over a datacenter's isolation
// invariants.
func newDCSession(t *testing.T, groups int) (*bench.Datacenter, *incr.Session) {
	t.Helper()
	d := bench.NewDatacenter(bench.DCConfig{Groups: groups, HostsPerGroup: 1})
	s, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, d.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

// shadowRule reports an overlay FIBUpdate prepending rule at node n.
func shadowRule(d *bench.Datacenter, n topo.NodeID, r tf.Rule) incr.Change {
	return incr.FIBUpdate(overlayFIBFor(d.Net.FIBFor, map[topo.NodeID][]tf.Rule{n: {r}}))
}

// TestPrefixDirtyingSharedAggregation: a FIB update at the aggregation
// switch — the node EVERY slice's walks cross — dirties only the
// invariants whose read atoms fall under the changed prefix. This is the
// headline case of the refinement: element-level dirtying would re-verify
// the entire invariant set for any change at a shared fabric element.
func TestPrefixDirtyingSharedAggregation(t *testing.T) {
	const G = 4
	dp, sp := newDCSession(t, G)

	// A new higher-priority steering rule for group 0's client prefix at
	// the aggregation switch.
	rule := tf.Rule{Match: bench.ClientPrefix(0), In: topo.NodeNone, Out: dp.FW1, Priority: 11}
	reports, err := sp.Apply([]incr.Change{shadowRule(dp, dp.Agg, rule)})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "prefix agg", reports, baseline(t, sp, core.Options{Engine: core.EngineSAT}, true))

	st := sp.LastApply()
	want := 2 * (G - 1) // pairs with a group-0 endpoint read group-0 atoms at agg
	if st.DirtyInvariants != want {
		t.Fatalf("prefix-level dirtied %d invariants, want %d: %+v", st.DirtyInvariants, want, st)
	}
	// agg is in every footprint, so element-level dirtying would have
	// re-verified all G*(G-1) invariants: every group the refinement
	// spared is counted, and it spared some.
	if st.RefinedClean == 0 || st.RefinedClean != st.Groups-st.DirtyGroups {
		t.Fatalf("every clean group should be refined-clean (agg is in all footprints): %+v", st)
	}
}

// TestNegativeLookupDirtying pins the fine-grained-dirtying soundness
// trap: a check whose lookup at a node matched only a covering default
// must be dirtied by a new more-specific rule that would now participate
// in the match — and checks whose atoms the new prefix does not cover
// must not be.
func TestNegativeLookupDirtying(t *testing.T) {
	const G = 4
	dp, sp := newDCSession(t, G)

	// tor0 forwards traffic toward group 1 via its catch-all /0 default
	// only. Install a more-specific rule for group 1's prefix with the
	// SAME next hop: forwarding behaviour is unchanged, but the matching
	// subsequence for group-1 atoms at tor0 now contains a new first
	// element, so every check that performed that lookup must re-verify.
	r := tf.Rule{Match: bench.ClientPrefix(1), In: topo.NodeNone, Out: dp.Agg, Priority: 20}
	reports, err := sp.Apply([]incr.Change{shadowRule(dp, dp.ToR[0], r)})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "negative lookup", reports, baseline(t, sp, core.Options{Engine: core.EngineSAT}, true))

	// Exactly the pairs whose slices walk from a group-0 host toward a
	// group-1 address read (tor0, g1-atom): iso g0->g1 and iso g1->g0.
	st := sp.LastApply()
	if st.DirtyInvariants != 2 {
		t.Fatalf("covering-default lookup must dirty exactly the reading pair, got %d: %+v",
			st.DirtyInvariants, st)
	}

	// A rule whose prefix covers no atom of any check (an address range
	// nothing routes toward) must dirty nothing at all.
	dead := tf.Rule{Match: pkt.Prefix{Addr: pkt.MustParseAddr("10.99.0.0"), Len: 24}, In: topo.NodeNone, Out: dp.Agg, Priority: 20}
	if _, err := sp.Apply([]incr.Change{shadowRule(dp, dp.ToR[0], dead)}); err != nil {
		t.Fatal(err)
	}
	if st := sp.LastApply(); st.DirtyInvariants != 0 {
		t.Fatalf("rule outside every read atom dirtied %d invariants: %+v", st.DirtyInvariants, st)
	}
}

// TestRuleLevelBoxDirtying: reconfiguring the global firewall dirties only
// the groups whose rule-read projection (live entries over their slice
// universe) changes — a dead entry dirties nothing, a live per-pair entry
// dirties that pair.
func TestRuleLevelBoxDirtying(t *testing.T) {
	const G = 4
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT},
		d.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// An entry over prefixes outside every slice universe is dead
	// everywhere: no group's projection changes.
	deadPfx := pkt.Prefix{Addr: pkt.MustParseAddr("10.99.0.0"), Len: 24}
	fw := cloneFirewall(d.FWPrimary)
	fw.ACL = append([]mbox.ACLEntry{mbox.DenyEntry(deadPfx, deadPfx)}, fw.ACL...)
	if _, err := sess.Apply([]incr.Change{incr.BoxSwap(d.FW1, fw)}); err != nil {
		t.Fatal(err)
	}
	st := sess.LastApply()
	if st.DirtyInvariants != 0 {
		t.Fatalf("dead ACL entry dirtied %d invariants: %+v", st.DirtyInvariants, st)
	}
	if st.RefinedClean == 0 {
		t.Fatal("refinement saving not accounted")
	}

	// A live per-pair entry dirties exactly the slices where both
	// prefixes cover a universe address: pair (2,3) in both directions.
	fw = cloneFirewall(fw)
	fw.ACL = append([]mbox.ACLEntry{
		mbox.DenyEntry(bench.ClientPrefix(2), bench.ClientPrefix(3)),
	}, fw.ACL...)
	reports, err := sess.Apply([]incr.Change{incr.BoxSwap(d.FW1, fw)})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "live entry", reports, baseline(t, sess, core.Options{Engine: core.EngineSAT}, true))
	if st := sess.LastApply(); st.DirtyInvariants != 2 {
		t.Fatalf("live per-pair entry must dirty exactly that pair, got %d: %+v", st.DirtyInvariants, st)
	}
}
