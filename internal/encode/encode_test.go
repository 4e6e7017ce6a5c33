package encode

import (
	"testing"

	"github.com/netverify/vmn/internal/explore"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/testnet"
	"github.com/netverify/vmn/internal/topo"
)

func mustVerify(t *testing.T, p *inv.Problem) inv.Result {
	t.Helper()
	r, err := Verify(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSimpleIsolationHoldsBMC(t *testing.T) {
	f := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw"))
	p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	if r := mustVerify(t, p); r.Outcome != inv.Holds {
		t.Fatalf("want holds, got %v", r.Outcome)
	}
}

func TestSimpleIsolationViolatedBMC(t *testing.T) {
	fw := &mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true}
	f := testnet.NewFirewallPair(fw)
	p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	r := mustVerify(t, p)
	if r.Outcome != inv.Violated {
		t.Fatalf("want violated, got %v", r.Outcome)
	}
	if len(r.Trace) == 0 {
		t.Fatal("expected a trace from the SAT model")
	}
	// The trace must contain the offending receive at hA.
	found := false
	for _, e := range r.Trace {
		if e.Kind == logic.EvRecv && e.Dst == f.HA && e.Hdr.Src == f.AddrB {
			found = true
		}
	}
	if !found {
		t.Fatalf("no bad receive in trace: %v", r.Trace)
	}
}

func TestFlowIsolationBMC(t *testing.T) {
	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	fw := mbox.NewLearningFirewall("fw",
		mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB)))
	f := testnet.NewFirewallPair(fw)
	p := f.Problem(inv.FlowIsolation{Dst: f.HA, SrcAddr: aB}, topo.NoFailures())
	if r := mustVerify(t, p); r.Outcome != inv.Holds {
		t.Fatalf("want holds, got %v", r.Outcome)
	}
	fw2 := &mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true}
	f2 := testnet.NewFirewallPair(fw2)
	p2 := f2.Problem(inv.FlowIsolation{Dst: f2.HA, SrcAddr: aB}, topo.NoFailures())
	if r := mustVerify(t, p2); r.Outcome != inv.Violated {
		t.Fatalf("want violated, got %v", r.Outcome)
	}
}

func TestDataIsolationCacheBMC(t *testing.T) {
	fw := &mbox.LearningFirewall{InstanceName: "fw", ACL: []mbox.ACLEntry{
		mbox.DenyEntry(pkt.HostPrefix(pkt.MustParseAddr("10.0.1.1")), pkt.HostPrefix(pkt.MustParseAddr("10.2.0.1"))),
		mbox.DenyEntry(pkt.HostPrefix(pkt.MustParseAddr("10.2.0.1")), pkt.HostPrefix(pkt.MustParseAddr("10.0.1.1"))),
	}, DefaultAllow: true}
	g := testnet.NewCacheGroup(
		mbox.NewContentCache("cache",
			mbox.DenyEntry(pkt.HostPrefix(pkt.MustParseAddr("10.0.1.1")), pkt.HostPrefix(pkt.MustParseAddr("10.2.0.1")))),
		fw,
	)
	p := g.Problem(inv.DataIsolation{Dst: g.H2, Origin: g.AddrS})
	if r := mustVerify(t, p); r.Outcome != inv.Holds {
		t.Fatalf("want holds, got %v (trace %v)", r.Outcome, r.Trace)
	}
	g2 := testnet.NewCacheGroup(mbox.NewContentCache("cache"), fw)
	p2 := g2.Problem(inv.DataIsolation{Dst: g2.H2, Origin: g2.AddrS})
	if r := mustVerify(t, p2); r.Outcome != inv.Violated {
		t.Fatalf("want violated, got %v", r.Outcome)
	}
}

func TestTraversalBMC(t *testing.T) {
	f := testnet.NewIDSFragment(testnet.NewIDSRegistry())
	invr := inv.Traversal{Dst: f.Host, SrcPrefix: pkt.HostPrefix(f.AddrPeer), Vias: []topo.NodeID{f.IDSNode}}
	p := f.Problem(invr, 2)
	if r := mustVerify(t, p); r.Outcome != inv.Holds {
		t.Fatalf("want holds, got %v", r.Outcome)
	}
}

// Cross-engine agreement: the BMC and explicit engines must return the
// same verdict on every fixture configuration.
func TestCrossEngineAgreement(t *testing.T) {
	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	type cfg struct {
		name string
		mk   func() *inv.Problem
	}
	var cases []cfg
	// Firewall pair sweeps: every combination of ACL entries and both
	// isolation invariants.
	acls := [][]mbox.ACLEntry{
		nil,
		{mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB))},
		{mbox.DenyEntry(pkt.HostPrefix(aB), pkt.HostPrefix(aA))},
		{mbox.DenyEntry(pkt.HostPrefix(aB), pkt.HostPrefix(aA)),
			mbox.DenyEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB))},
		{mbox.AllowEntry(pkt.HostPrefix(aB), pkt.HostPrefix(aA))},
	}
	for ai := range acls {
		for _, da := range []bool{false, true} {
			ai, da := ai, da
			cases = append(cases, cfg{
				name: "fw-simple",
				mk: func() *inv.Problem {
					fw := &mbox.LearningFirewall{InstanceName: "fw", ACL: acls[ai], DefaultAllow: da}
					f := testnet.NewFirewallPair(fw)
					return f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
				},
			})
			cases = append(cases, cfg{
				name: "fw-flow",
				mk: func() *inv.Problem {
					fw := &mbox.LearningFirewall{InstanceName: "fw", ACL: acls[ai], DefaultAllow: da}
					f := testnet.NewFirewallPair(fw)
					return f.Problem(inv.FlowIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
				},
			})
		}
	}
	// Cache group with and without the protective ACLs.
	for _, cacheACL := range []bool{false, true} {
		for _, fwACL := range []bool{false, true} {
			cacheACL, fwACL := cacheACL, fwACL
			cases = append(cases, cfg{
				name: "cache-data",
				mk: func() *inv.Problem {
					var cents []mbox.ACLEntry
					if cacheACL {
						cents = append(cents, mbox.DenyEntry(
							pkt.HostPrefix(pkt.MustParseAddr("10.0.1.1")),
							pkt.HostPrefix(pkt.MustParseAddr("10.2.0.1"))))
					}
					var fents []mbox.ACLEntry
					if fwACL {
						fents = append(fents,
							mbox.DenyEntry(pkt.HostPrefix(pkt.MustParseAddr("10.0.1.1")), pkt.HostPrefix(pkt.MustParseAddr("10.2.0.1"))),
							mbox.DenyEntry(pkt.HostPrefix(pkt.MustParseAddr("10.2.0.1")), pkt.HostPrefix(pkt.MustParseAddr("10.0.1.1"))))
					}
					cache := &mbox.ContentCache{InstanceName: "cache", ACL: cents, DefaultServe: true}
					fw := &mbox.LearningFirewall{InstanceName: "fw", ACL: fents, DefaultAllow: true}
					g := testnet.NewCacheGroup(cache, fw)
					return g.Problem(inv.DataIsolation{Dst: g.H2, Origin: g.AddrS})
				},
			})
		}
	}
	for i, c := range cases {
		pBMC := c.mk()
		pEXP := c.mk()
		rb, err := Verify(pBMC, Options{})
		if err != nil {
			t.Fatalf("case %d (%s): bmc error: %v", i, c.name, err)
		}
		re, err := explore.Verify(pEXP, explore.Options{})
		if err != nil {
			t.Fatalf("case %d (%s): explore error: %v", i, c.name, err)
		}
		if rb.Outcome != re.Outcome {
			t.Fatalf("case %d (%s): engines disagree: bmc=%v explore=%v",
				i, c.name, rb.Outcome, re.Outcome)
		}
	}
}

// The engine rejects middleboxes it cannot encode.
func TestRejectsNonBooleanState(t *testing.T) {
	aA := pkt.MustParseAddr("10.0.0.1")
	f := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw"))
	p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	p.Boxes = []mbox.Instance{{Node: f.FW, Model: mbox.NewNAT("nat", aA)}}
	if _, err := Verify(p, Options{}); err == nil {
		t.Fatal("NAT state must be rejected by the BMC engine")
	}
}

func TestRejectsNondeterministicModel(t *testing.T) {
	f := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw"))
	p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	lb := mbox.NewLoadBalancer("lb", f.AddrB, f.AddrA, f.AddrB)
	p.Boxes = []mbox.Instance{{Node: f.FW, Model: lb}}
	if _, err := Verify(p, Options{}); err == nil {
		t.Fatal("nondeterministic model must be rejected")
	}
}

func TestVerifyDeterministic(t *testing.T) {
	fw := &mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true}
	f := testnet.NewFirewallPair(fw)
	run := func() inv.Result {
		p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
		r, err := Verify(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Outcome != b.Outcome || a.SolverConflicts != b.SolverConflicts {
		t.Fatalf("two runs of one problem must be identical: %+v vs %+v", a, b)
	}
}

func TestFailureScenarioBMC(t *testing.T) {
	fw := &mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true}
	f := testnet.NewFirewallPair(fw)
	p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.Failures(f.FW))
	if r := mustVerify(t, p); r.Outcome != inv.Holds {
		t.Fatalf("failed fail-closed firewall drops everything, got %v", r.Outcome)
	}
}

func TestInvalidMaxSendsBMC(t *testing.T) {
	f := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw"))
	p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	p.MaxSends = 0
	if _, err := Verify(p, Options{}); err == nil {
		t.Fatal("MaxSends=0 must error")
	}
}
