package slices

import (
	"fmt"
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// star builds N hosts on one switch with a firewall on a stick, all pairs
// routed through the firewall.
func star(n int) (*topo.Topology, tf.FIB, topo.NodeID, []topo.NodeID) {
	t := topo.New()
	sw := t.AddSwitch("sw")
	fw := t.AddMiddlebox("fw", "firewall")
	t.AddLink(fw, sw)
	fib := tf.FIB{}
	var hosts []topo.NodeID
	for i := 0; i < n; i++ {
		a := pkt.Addr(10)<<24 | pkt.Addr(i+1)
		h := t.AddHost(string(rune('a'+i)), a)
		t.AddLink(h, sw)
		hosts = append(hosts, h)
		fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(a), In: fw, Out: h, Priority: 20})
		fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(a), In: topo.NodeNone, Out: fw, Priority: 10})
	}
	return t, fib, fw, hosts
}

func TestFlowParallelSliceIsMinimal(t *testing.T) {
	tp, fib, fw, hosts := star(20)
	eng := tf.New(tp, fib, topo.NoFailures())
	res, err := Compute(Input{
		Topo:  tp,
		TF:    eng,
		Boxes: []mbox.Instance{{Node: fw, Model: mbox.NewLearningFirewall("fw")}},
		Keep:  []topo.NodeID{hosts[0], hosts[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Whole {
		t.Fatal("flow-parallel network must have a proper slice")
	}
	if len(res.Hosts) != 2 {
		t.Fatalf("slice hosts = %d, want 2 (independent of the 20-host network)", len(res.Hosts))
	}
	if len(res.Boxes) != 1 {
		t.Fatalf("slice boxes = %d, want 1", len(res.Boxes))
	}
}

func TestOriginAgnosticSliceAddsClassReps(t *testing.T) {
	tp, fib, fw, hosts := star(9)
	eng := tf.New(tp, fib, topo.NoFailures())
	// Three policy classes over nine hosts.
	classes := map[topo.NodeID]string{}
	for i, h := range hosts {
		classes[h] = []string{"red", "green", "blue"}[i%3]
	}
	res, err := Compute(Input{
		Topo:        tp,
		TF:          eng,
		Boxes:       []mbox.Instance{{Node: fw, Model: mbox.NewContentCache("cache")}},
		PolicyClass: classes,
		Keep:        []topo.NodeID{hosts[0], hosts[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Whole {
		t.Fatal("origin-agnostic network still slices")
	}
	// Keep hosts are red and green; one blue representative must be added.
	if len(res.Hosts) != 3 {
		t.Fatalf("slice hosts = %d, want 3 (one per policy class)", len(res.Hosts))
	}
	have := map[string]bool{}
	for _, h := range res.Hosts {
		have[classes[h]] = true
	}
	if !have["red"] || !have["green"] || !have["blue"] {
		t.Fatalf("missing class representative: %v", have)
	}
}

// TestUnlabeledClassCannotBeDeclared pins that an unlabeled node's class
// is a name no description or relabel may declare, so a host declared with
// a look-alike name never stands in for the unlabeled host as its class's
// §4.1 representative.
func TestUnlabeledClassCannotBeDeclared(t *testing.T) {
	tp, fib, fw, hosts := star(3)
	eng := tf.New(tp, fib, topo.NoFailures())
	unlabeled := hosts[2]
	if err := CheckClass(ClassOf(nil, unlabeled)); err == nil {
		t.Fatalf("the class of unlabeled node %d, %q, can be declared", unlabeled, ClassOf(nil, unlabeled))
	}
	for _, look := range []string{fmt.Sprintf("singleton-%d", unlabeled), fmt.Sprint(unlabeled), "node"} {
		if err := CheckClass(look); err != nil {
			t.Fatalf("%q: %v", look, err)
		}
		res, err := Compute(Input{
			Topo:        tp,
			TF:          eng,
			Boxes:       []mbox.Instance{{Node: fw, Model: mbox.NewContentCache("cache")}},
			PolicyClass: map[topo.NodeID]string{hosts[0]: look, hosts[1]: "red"},
			Keep:        []topo.NodeID{hosts[0]},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(res.Hosts, unlabeled) {
			t.Fatalf("a host declared %q hides unlabeled node %d: slice hosts %v", look, unlabeled, res.Hosts)
		}
	}
}

// generalBox is a middlebox with General discipline.
type generalBox struct{ mbox.Passthrough }

func (g *generalBox) Discipline() mbox.Discipline { return mbox.General }

func TestGeneralDisciplineForcesWholeNetwork(t *testing.T) {
	tp, fib, fw, hosts := star(5)
	eng := tf.New(tp, fib, topo.NoFailures())
	res, err := Compute(Input{
		Topo:  tp,
		TF:    eng,
		Boxes: []mbox.Instance{{Node: fw, Model: &generalBox{}}},
		Keep:  []topo.NodeID{hosts[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Whole {
		t.Fatal("General discipline must force the whole network")
	}
	if len(res.Hosts) != 5 {
		t.Fatalf("whole network should include all hosts, got %d", len(res.Hosts))
	}
}

func TestAuxAddrsPullScrubberIn(t *testing.T) {
	// IDS whose scrubber sits behind the same switch.
	tp := topo.New()
	sw := tp.AddSwitch("sw")
	ids := tp.AddMiddlebox("ids", "idps")
	sb := tp.AddMiddlebox("sb", "scrubber")
	h1 := tp.AddHost("h1", pkt.MustParseAddr("10.0.0.1"))
	h2 := tp.AddHost("h2", pkt.MustParseAddr("10.0.0.2"))
	tp.AddLink(ids, sw)
	tp.AddLink(sb, sw)
	tp.AddLink(h1, sw)
	tp.AddLink(h2, sw)
	scrubAddr := pkt.MustParseAddr("100.0.0.9")
	fib := tf.FIB{}
	for _, h := range []struct {
		n topo.NodeID
		a pkt.Addr
	}{{h1, pkt.MustParseAddr("10.0.0.1")}, {h2, pkt.MustParseAddr("10.0.0.2")}} {
		fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(h.a), In: ids, Out: h.n, Priority: 20})
		fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(h.a), In: topo.NodeNone, Out: ids, Priority: 10})
	}
	fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(scrubAddr), In: topo.NodeNone, Out: sb, Priority: 20})
	eng := tf.New(tp, fib, topo.NoFailures())
	reg := pkt.NewRegistry()
	reg.Register(mbox.ClassMalicious)
	res, err := Compute(Input{
		Topo: tp,
		TF:   eng,
		Boxes: []mbox.Instance{
			{Node: ids, Model: mbox.NewIDPS("ids", reg, scrubAddr, pkt.Prefix{Addr: pkt.Addr(10) << 24, Len: 8})},
			{Node: sb, Model: mbox.NewScrubber("sb", reg)},
		},
		Keep: []topo.NodeID{h1, h2},
	})
	if err != nil {
		t.Fatal(err)
	}
	hasScrubber := false
	for _, b := range res.Boxes {
		if b.Node == sb {
			hasScrubber = true
		}
	}
	if !hasScrubber {
		t.Fatalf("slice must contain the IDS's scrubber: %+v", res.Boxes)
	}
}

func TestSliceSize(t *testing.T) {
	r := Result{Hosts: []topo.NodeID{1, 2}, Boxes: []mbox.Instance{{}}}
	if r.Size() != 3 {
		t.Fatalf("size = %d", r.Size())
	}
}
