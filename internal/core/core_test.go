package core

import (
	"fmt"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// pairNet builds a two-host network with a firewall on a stick.
func pairNet(fw mbox.Model) (*Network, topo.NodeID, topo.NodeID, topo.NodeID) {
	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	t := topo.New()
	hA := t.AddHost("hA", aA)
	hB := t.AddHost("hB", aB)
	sw := t.AddSwitch("sw")
	fwn := t.AddMiddlebox("fw", "firewall")
	t.AddLink(hA, sw)
	t.AddLink(hB, sw)
	t.AddLink(fwn, sw)
	fib := tf.FIB{}
	for _, h := range []struct {
		n topo.NodeID
		a pkt.Addr
	}{{hA, aA}, {hB, aB}} {
		fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(h.a), In: fwn, Out: h.n, Priority: 20})
		fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(h.a), In: topo.NodeNone, Out: fwn, Priority: 10})
	}
	net := &Network{
		Topo:   t,
		Boxes:  []mbox.Instance{{Node: fwn, Model: fw}},
		FIBFor: func(topo.FailureScenario) tf.FIB { return fib },
	}
	return net, hA, hB, fwn
}

func TestNewVerifierValidation(t *testing.T) {
	if _, err := NewVerifier(&Network{}, Options{}); err == nil {
		t.Fatal("missing topo/FIB must error")
	}
	net, _, _, _ := pairNet(mbox.NewLearningFirewall("fw"))
	net.Registry = nil
	v, err := NewVerifier(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Network().Registry == nil {
		t.Fatal("registry must be defaulted")
	}
}

func TestEngineDispatch(t *testing.T) {
	aB := pkt.MustParseAddr("10.0.0.2")
	for _, mode := range []EngineKind{EngineAuto, EngineSAT, EngineExplicit} {
		net, hA, _, _ := pairNet(mbox.NewLearningFirewall("fw"))
		v, _ := NewVerifier(net, Options{Engine: mode})
		rs, err := v.VerifyInvariant(inv.SimpleIsolation{Dst: hA, SrcAddr: aB})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if rs[0].Result.Outcome != inv.Holds {
			t.Fatalf("%v: got %v", mode, rs[0].Result.Outcome)
		}
		switch mode {
		case EngineSAT:
			if rs[0].Engine != "sat" {
				t.Fatalf("engine label: %s", rs[0].Engine)
			}
		case EngineExplicit:
			if rs[0].Engine != "explicit" {
				t.Fatalf("engine label: %s", rs[0].Engine)
			}
		}
	}
}

func TestAutoFallsBackForNAT(t *testing.T) {
	// A NAT's state is not boolean: EngineAuto must fall back to explicit.
	natAddr := pkt.MustParseAddr("100.0.0.1")
	net, hA, _, _ := pairNet(mbox.NewNAT("nat", natAddr))
	v, _ := NewVerifier(net, Options{Engine: EngineAuto})
	rs, err := v.VerifyInvariant(inv.SimpleIsolation{Dst: hA, SrcAddr: pkt.MustParseAddr("10.0.0.2")})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Engine != "explicit" {
		t.Fatalf("expected explicit fallback, got %s", rs[0].Engine)
	}
}

func TestScenarioDefaultsToFaultFree(t *testing.T) {
	net, hA, _, _ := pairNet(mbox.NewLearningFirewall("fw"))
	v, _ := NewVerifier(net, Options{})
	rs, _ := v.VerifyInvariant(inv.SimpleIsolation{Dst: hA, SrcAddr: pkt.MustParseAddr("10.0.0.2")})
	if len(rs) != 1 || rs[0].Scenario.Count() != 0 {
		t.Fatalf("default scenario wrong: %+v", rs)
	}
}

func TestMultipleScenarios(t *testing.T) {
	net, hA, _, fwn := pairNet(&mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true})
	v, _ := NewVerifier(net, Options{
		Scenarios: []topo.FailureScenario{topo.NoFailures(), topo.Failures(fwn)},
	})
	rs, err := v.VerifyInvariant(inv.SimpleIsolation{Dst: hA, SrcAddr: pkt.MustParseAddr("10.0.0.2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("want 2 reports, got %d", len(rs))
	}
	// Default-allow FW: violated fault-free, holds when the fail-closed
	// box is down.
	if rs[0].Satisfied || !rs[1].Satisfied {
		t.Fatalf("verdicts wrong: %v / %v", rs[0].Result.Outcome, rs[1].Result.Outcome)
	}
}

func TestVerifyAllWithoutSymmetry(t *testing.T) {
	net, hA, hB, _ := pairNet(mbox.NewLearningFirewall("fw"))
	v, _ := NewVerifier(net, Options{})
	invs := []inv.Invariant{
		inv.SimpleIsolation{Dst: hA, SrcAddr: pkt.MustParseAddr("10.0.0.2")},
		inv.SimpleIsolation{Dst: hB, SrcAddr: pkt.MustParseAddr("10.0.0.1")},
	}
	rs, err := v.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("want 2 reports, got %d", len(rs))
	}
	for _, r := range rs {
		if r.Reused {
			t.Fatal("no reuse without symmetry")
		}
	}
}

func TestMaxSendsOverride(t *testing.T) {
	net, hA, _, _ := pairNet(mbox.NewLearningFirewall("fw"))
	v, _ := NewVerifier(net, Options{MaxSends: 1})
	rs, err := v.VerifyInvariant(inv.SimpleIsolation{Dst: hA, SrcAddr: pkt.MustParseAddr("10.0.0.2")})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Result.Outcome != inv.Holds {
		t.Fatalf("got %v", rs[0].Result.Outcome)
	}
}

func TestEngineKindString(t *testing.T) {
	if EngineAuto.String() != "auto" || EngineSAT.String() != "sat" || EngineExplicit.String() != "explicit" {
		t.Fatal("engine names")
	}
}

// TestParseEngine: ParseEngine inverts String and refuses anything else.
func TestParseEngine(t *testing.T) {
	for _, e := range []EngineKind{EngineAuto, EngineSAT, EngineExplicit} {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v", e.String(), got, err, e)
		}
	}
	for _, s := range []string{"bogus", "", "SAT"} {
		if _, err := ParseEngine(s); err == nil {
			t.Fatalf("ParseEngine(%q) accepted", s)
		}
	}
}

func TestNoSlicesReportsWhole(t *testing.T) {
	net, hA, _, _ := pairNet(mbox.NewLearningFirewall("fw"))
	v, _ := NewVerifier(net, Options{NoSlices: true})
	rs, err := v.VerifyInvariant(inv.SimpleIsolation{Dst: hA, SrcAddr: pkt.MustParseAddr("10.0.0.2")})
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Whole {
		t.Fatal("NoSlices must mark the report Whole")
	}
}

// TestEngineInternKeepsHotEngine: single-failure views stream through the
// engine intern cache while every other lookup is the fault-free view. The
// fault-free engine, with its warm walk memo, must stay interned however
// many views pass, and the cache must stay within its bound.
func TestEngineInternKeepsHotEngine(t *testing.T) {
	net, _, _, _ := pairNet(mbox.NewLearningFirewall("fw"))
	sw, _ := net.Topo.ByName("sw")
	var extra []topo.NodeID
	for i := 0; i < 100; i++ {
		h := net.Topo.AddHost(fmt.Sprintf("x%d", i), pkt.MustParseAddr(fmt.Sprintf("10.1.%d.1", i)))
		net.Topo.AddLink(h, sw.ID)
		extra = append(extra, h)
	}
	o := obs.New(0)
	v, err := NewVerifier(net, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	hot := v.EngineFor(topo.NoFailures())
	for i, n := range extra {
		v.EngineFor(topo.Failures(n))
		if got := v.EngineFor(topo.NoFailures()); got != hot {
			t.Fatalf("view %d: the fault-free engine was re-interned", i)
		}
		if count := o.Metrics.Snapshot()["vmn_core_engines"]; count > engineCacheCap {
			t.Fatalf("view %d: %v engines interned, bound %d", i, count, engineCacheCap)
		}
	}
}
