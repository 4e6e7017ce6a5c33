package topo

import (
	"testing"

	"github.com/netverify/vmn/internal/pkt"
)

func buildSmall(t *testing.T) *Topology {
	t.Helper()
	tp := New()
	h1 := tp.AddHost("h1", pkt.MustParseAddr("10.0.0.1"))
	h2 := tp.AddHost("h2", pkt.MustParseAddr("10.0.0.2"))
	sw := tp.AddSwitch("sw1")
	fw := tp.AddMiddlebox("fw1", "firewall")
	tp.AddLink(h1, sw)
	tp.AddLink(sw, fw)
	tp.AddLink(fw, h2)
	return tp
}

func TestBuildAndLookup(t *testing.T) {
	tp := buildSmall(t)
	if tp.NumNodes() != 4 {
		t.Fatalf("nodes = %d", tp.NumNodes())
	}
	n, ok := tp.ByName("fw1")
	if !ok || n.Kind != Middlebox || n.MBType != "firewall" {
		t.Fatalf("fw lookup: %+v ok=%v", n, ok)
	}
	h, ok := tp.HostByAddr(pkt.MustParseAddr("10.0.0.2"))
	if !ok || h.Name != "h2" {
		t.Fatalf("addr lookup: %+v", h)
	}
	if _, ok := tp.ByName("nope"); ok {
		t.Fatal("phantom lookup")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := New()
	tp.AddHost("x", 1)
	tp.AddSwitch("x")
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := New()
	a := tp.AddSwitch("a")
	tp.AddLink(a, a)
}

func TestDuplicateLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := New()
	a, b := tp.AddSwitch("a"), tp.AddSwitch("b")
	tp.AddLink(a, b)
	tp.AddLink(b, a)
}

func TestNeighbors(t *testing.T) {
	tp := buildSmall(t)
	sw := tp.MustByName("sw1")
	nb := tp.Neighbors(sw.ID)
	if len(nb) != 2 {
		t.Fatalf("sw1 neighbors = %v", nb)
	}
}

func TestNodesOfKindAndEdgeNodes(t *testing.T) {
	tp := buildSmall(t)
	if got := len(tp.NodesOfKind(Host)); got != 2 {
		t.Fatalf("hosts = %d", got)
	}
	if got := len(tp.NodesOfKind(Switch)); got != 1 {
		t.Fatalf("switches = %d", got)
	}
	if got := len(tp.EdgeNodes()); got != 3 {
		t.Fatalf("edge nodes = %d", got)
	}
}

func TestFailureScenario(t *testing.T) {
	f := Failures(3, 1)
	if !f.Failed(3) || !f.Failed(1) || f.Failed(2) {
		t.Fatal("membership wrong")
	}
	if f.Count() != 2 {
		t.Fatalf("count = %d", f.Count())
	}
	ns := f.Nodes()
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 3 {
		t.Fatalf("nodes = %v", ns)
	}
	if NoFailures().Count() != 0 {
		t.Fatal("NoFailures should be empty")
	}
	if f.Key() == NoFailures().Key() {
		t.Fatal("keys should differ")
	}
	if Failures(1, 3).Key() != f.Key() {
		t.Fatal("key must be order-insensitive")
	}
}

func TestSingleFailures(t *testing.T) {
	ss := SingleFailures([]NodeID{5, 7})
	if len(ss) != 3 {
		t.Fatalf("scenarios = %d", len(ss))
	}
	if ss[0].Count() != 0 || !ss[1].Failed(5) || !ss[2].Failed(7) {
		t.Fatal("scenario contents wrong")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Host: "host", Switch: "switch", Middlebox: "middlebox", External: "external"} {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
}

func TestExternalNode(t *testing.T) {
	tp := New()
	id := tp.AddExternal("internet", pkt.MustParseAddr("8.8.8.8"))
	n := tp.Node(id)
	if n.Kind != External || !n.IsEdge() {
		t.Fatalf("external node wrong: %+v", n)
	}
}
