package slices_test

// Failure-scenario coverage for slices.Compute: when nodes are down the
// per-scenario forwarding state routes around them, and the slice must
// (a) stay closed under the failed-scenario transfer function, (b) retain
// exactly the middleboxes that are actually on path in that scenario, and
// (c) preserve verdict equivalence with whole-network verification — the
// §4.1 theorem under §3.5's per-failure forwarding tables. Also covers the
// General-discipline fallback: one unclassifiable box forces the whole
// network, failed or not.

import (
	"math/rand"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// computeSlice builds the slice an invariant would be verified against
// under the given failure scenario.
func computeSlice(t *testing.T, net *core.Network, i inv.Invariant, sc topo.FailureScenario) (slices.Result, *tf.Engine) {
	t.Helper()
	in := sliceInput(net, i, sc)
	sl, err := slices.Compute(in)
	if err != nil {
		t.Fatal(err)
	}
	return sl, in.TF
}

func sliceInput(net *core.Network, i inv.Invariant, sc topo.FailureScenario) slices.Input {
	keep := append([]topo.NodeID(nil), i.Nodes()...)
	for _, a := range i.RefAddrs() {
		if n, ok := net.Topo.HostByAddr(a); ok {
			keep = append(keep, n.ID)
		}
	}
	return slices.Input{
		Topo:        net.Topo,
		TF:          tf.New(net.Topo, net.FIBFor(sc), sc),
		Boxes:       net.Boxes,
		PolicyClass: net.PolicyClass,
		Keep:        keep,
	}
}

// TestComputeAllocsFollowTheSlice: slicing one tenant's invariant in a
// cloud VPC allocates the same at 256 and at 2 048 tenants (§4: a slice's
// cost follows the slice, not the network).
func TestComputeAllocsFollowTheSlice(t *testing.T) {
	allocs := func(tenants int) float64 {
		net, invs, err := netdesc.Build(netdesc.CloudVPC(netdesc.VPCConfig{Tenants: tenants, Shapes: 1}), "")
		if err != nil {
			t.Fatal(err)
		}
		in := sliceInput(net, invs[0], topo.NoFailures())
		return testing.AllocsPerRun(20, func() {
			if _, err := slices.Compute(in); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(256), allocs(2048); small != large {
		t.Fatalf("Compute allocates %v times at 256 tenants, %v at 2048", small, large)
	}
}

// assertClosed checks slice closure under the scenario's transfer
// function: every middlebox on any path between slice hosts is in the
// slice.
func assertClosed(t *testing.T, net *core.Network, sl slices.Result, eng *tf.Engine) {
	t.Helper()
	inSlice := map[topo.NodeID]bool{}
	for _, h := range sl.Hosts {
		inSlice[h] = true
	}
	for _, b := range sl.Boxes {
		inSlice[b.Node] = true
	}
	for _, a := range sl.Hosts {
		for _, b := range sl.Hosts {
			if a == b {
				continue
			}
			path, err := eng.Path(a, net.Topo.Node(b).Addr)
			if err != nil {
				continue // unreachable pairs constrain nothing
			}
			for _, hop := range path {
				if net.Topo.Node(hop).Kind == topo.Middlebox && !inSlice[hop] {
					t.Fatalf("slice not closed: middlebox %s on path %s->%s is outside the slice",
						net.Topo.Node(hop).Name, net.Topo.Node(a).Name, net.Topo.Node(b).Name)
				}
			}
		}
	}
}

func TestComputeUnderFirewallFailure(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	iv := d.IsolationInvariant(0, 1)

	healthy, hEng := computeSlice(t, d.Net, iv, topo.NoFailures())
	assertClosed(t, d.Net, healthy, hEng)
	boxSet := func(sl slices.Result) map[topo.NodeID]bool {
		m := map[topo.NodeID]bool{}
		for _, b := range sl.Boxes {
			m[b.Node] = true
		}
		return m
	}
	if bs := boxSet(healthy); !bs[d.FW1] || bs[d.FW2] {
		t.Fatalf("fault-free slice must route via the primary firewall only: %v", healthy.Boxes)
	}

	// With FW1 down the per-scenario tables steer via FW2: the slice must
	// swap firewalls and stay closed under the failed-scenario TF.
	failed, fEng := computeSlice(t, d.Net, iv, topo.Failures(d.FW1))
	assertClosed(t, d.Net, failed, fEng)
	if bs := boxSet(failed); !bs[d.FW2] {
		t.Fatalf("failed-scenario slice must contain the backup firewall: %v", failed.Boxes)
	}
	if failed.Whole {
		t.Fatal("failure must not force whole-network verification")
	}
}

// TestVerdictEquivalenceUnderFailures is the §4.1 soundness statement
// exercised under failure scenarios: sliced and whole-network verification
// agree on every (invariant, scenario) verdict, including a scenario where
// the misconfigured backup firewall leaks.
func TestVerdictEquivalenceUnderFailures(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	rng := rand.New(rand.NewSource(11))
	aff := d.DeleteBackupDenyRules(rng, 1)
	scens := []topo.FailureScenario{
		topo.NoFailures(),
		topo.Failures(d.FW1),
		topo.Failures(d.FW1, d.IDS1),
	}
	invs := []inv.Invariant{
		d.IsolationInvariant(aff[0][0], aff[0][1]), // violated only when FW1 is down
		d.IsolationInvariant(aff[0][1], aff[0][0]),
	}
	for _, iv := range invs {
		for _, sc := range scens {
			sliced, err := mustVerifier(t, d.Net, core.Options{Engine: core.EngineSAT, Scenarios: []topo.FailureScenario{sc}}).VerifyInvariant(iv)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := mustVerifier(t, d.Net, core.Options{Engine: core.EngineSAT, NoSlices: true, Scenarios: []topo.FailureScenario{sc}}).VerifyInvariant(iv)
			if err != nil {
				t.Fatal(err)
			}
			if sliced[0].Result.Outcome != whole[0].Result.Outcome {
				t.Fatalf("%s under %q: slice says %v, whole network says %v",
					iv.Name(), sc.Key(), sliced[0].Result.Outcome, whole[0].Result.Outcome)
			}
			if sliced[0].Whole {
				t.Fatalf("%s under %q: expected a proper slice", iv.Name(), sc.Key())
			}
		}
	}
}

func mustVerifier(t *testing.T, net *core.Network, opts core.Options) *core.Verifier {
	t.Helper()
	v, err := core.NewVerifier(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// generalBox is a minimal General-discipline middlebox: slices must not
// shrink below the whole network while one exists, under any scenario.
type generalBox struct{}

func (generalBox) Type() string                               { return "general" }
func (generalBox) InitState() mbox.State                      { return mbox.SetStateWith() }
func (generalBox) Discipline() mbox.Discipline                { return mbox.General }
func (generalBox) FailMode() mbox.FailMode                    { return mbox.FailOpen }
func (generalBox) RelevantClasses(*pkt.Registry) pkt.ClassSet { return 0 }
func (generalBox) Process(st mbox.State, in mbox.Input) []mbox.Branch {
	return []mbox.Branch{{Label: "pass", Out: []mbox.Output{{Hdr: in.Hdr, Classes: in.Classes}}, Next: st}}
}

func TestGeneralDisciplineWholeNetworkFallbackUnderFailure(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	// Rebind IDS2 to a General-discipline model: every slice must now be
	// the whole network, in the fault-free and the failed scenario alike.
	for bi, b := range d.Net.Boxes {
		if b.Node == d.IDS2 {
			d.Net.Boxes[bi].Model = generalBox{}
		}
	}
	iv := d.IsolationInvariant(0, 1)
	for _, sc := range []topo.FailureScenario{topo.NoFailures(), topo.Failures(d.FW1)} {
		sl, _ := computeSlice(t, d.Net, iv, sc)
		if !sl.Whole {
			t.Fatalf("General-discipline box must force the whole network (scenario %q)", sc.Key())
		}
		hostCount := 0
		for _, n := range d.Net.Topo.Nodes() {
			if n.Kind == topo.Host || n.Kind == topo.External {
				hostCount++
			}
		}
		if len(sl.Hosts) != hostCount || len(sl.Boxes) != len(d.Net.Boxes) {
			t.Fatalf("whole-network fallback must keep all %d hosts and %d boxes, got %d/%d",
				hostCount, len(d.Net.Boxes), len(sl.Hosts), len(sl.Boxes))
		}
		// The node footprint must cover every node for whole
		// slices (the incremental layer dirties on it).
		eng := tf.New(d.Net.Topo, d.Net.FIBFor(sc), sc)
		if got := len(slices.ComputeReadSet(d.Net.Topo, eng, sl).Nodes); got != d.Net.Topo.NumNodes() {
			t.Fatalf("footprint of a whole slice: %d nodes, want %d", got, d.Net.Topo.NumNodes())
		}
	}
}

// TestTouchedFootprintUnderFailure pins the dependency footprint: the
// failed-scenario slice's touched set contains the backup firewall and the
// fabric actually in use, and rack-local elements of unrelated groups stay
// outside it.
func TestTouchedFootprintUnderFailure(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	iv := d.IsolationInvariant(0, 1)
	sl, eng := computeSlice(t, d.Net, iv, topo.Failures(d.FW1))
	touched := slices.ComputeReadSet(d.Net.Topo, eng, sl).Nodes
	set := map[topo.NodeID]bool{}
	for _, n := range touched {
		set[n] = true
	}
	for _, want := range []topo.NodeID{d.FW2, d.Agg, d.ToR[0], d.ToR[1], d.Hosts[0][0], d.Hosts[1][0]} {
		if !set[want] {
			t.Fatalf("touched set misses %s: %v", d.Net.Topo.Node(want).Name, touched)
		}
	}
	if set[d.Hosts[2][0]] {
		t.Fatal("touched set must not include unrelated rack hosts")
	}
}
