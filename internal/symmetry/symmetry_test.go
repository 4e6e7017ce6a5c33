package symmetry

import (
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/topo"
)

func classifier() (Classifier, []topo.NodeID) {
	t := topo.New()
	sw := t.AddSwitch("sw")
	var hosts []topo.NodeID
	for i := 0; i < 4; i++ {
		h := t.AddHost(string(rune('a'+i)), pkt.Addr(10)<<24|pkt.Addr(i+1))
		t.AddLink(h, sw)
		hosts = append(hosts, h)
	}
	c := Classifier{
		HostClass: map[topo.NodeID]string{
			hosts[0]: "red", hosts[1]: "red",
			hosts[2]: "blue", hosts[3]: "blue",
		},
		Topo: t,
	}
	return c, hosts
}

func addrOf(i int) pkt.Addr { return pkt.Addr(10)<<24 | pkt.Addr(i+1) }

func TestSignatureGroupsSymmetricInvariants(t *testing.T) {
	c, hosts := classifier()
	// red<-blue isolation in two symmetric instantiations.
	i1 := inv.SimpleIsolation{Dst: hosts[0], SrcAddr: addrOf(2)}
	i2 := inv.SimpleIsolation{Dst: hosts[1], SrcAddr: addrOf(3)}
	// A blue<-red one is different.
	i3 := inv.SimpleIsolation{Dst: hosts[2], SrcAddr: addrOf(0)}
	if c.Signature(i1) != c.Signature(i2) {
		t.Fatal("symmetric invariants must share a signature")
	}
	if c.Signature(i1) == c.Signature(i3) {
		t.Fatal("direction matters: red<-blue != blue<-red")
	}
}

func TestSignatureDistinguishesInvariantKinds(t *testing.T) {
	c, hosts := classifier()
	iso := inv.SimpleIsolation{Dst: hosts[0], SrcAddr: addrOf(2)}
	flow := inv.FlowIsolation{Dst: hosts[0], SrcAddr: addrOf(2)}
	reach := inv.Reachability{Dst: hosts[0], SrcAddr: addrOf(2)}
	data := inv.DataIsolation{Dst: hosts[0], Origin: addrOf(2)}
	sigs := map[string]bool{
		c.Signature(iso): true, c.Signature(flow): true,
		c.Signature(reach): true, c.Signature(data): true,
	}
	if len(sigs) != 4 {
		t.Fatalf("kinds must have distinct signatures, got %d", len(sigs))
	}
}

func TestTraversalSignatureSortsVias(t *testing.T) {
	c, hosts := classifier()
	t1 := inv.Traversal{Dst: hosts[0], Vias: []topo.NodeID{7, 9}}
	t2 := inv.Traversal{Dst: hosts[1], Vias: []topo.NodeID{9, 7}}
	if c.Signature(t1) != c.Signature(t2) {
		t.Fatal("via order must not matter")
	}
}

// TestTraversalSignatureNamesSender pins that a traversal's sender is in
// its signature: the sender is pulled into the slice, so two traversals
// that differ only in it are different checks.
func TestTraversalSignatureNamesSender(t *testing.T) {
	c, hosts := classifier()
	t1 := inv.Traversal{Dst: hosts[0], SrcPrefix: pkt.Prefix{Addr: addrOf(0), Len: 8}, SrcAddr: addrOf(1), Vias: []topo.NodeID{7}}
	t2 := t1
	t2.SrcAddr = addrOf(2)
	for _, cls := range []Classifier{c, {Topo: c.Topo}} {
		if cls.Signature(t1) == cls.Signature(t2) {
			t.Fatalf("traversals from different senders share signature %q", cls.Signature(t1))
		}
	}
}

func TestUnknownNodesAreSingletons(t *testing.T) {
	c, _ := classifier()
	i1 := inv.SimpleIsolation{Dst: 99, SrcAddr: addrOf(0)}
	i2 := inv.SimpleIsolation{Dst: 98, SrcAddr: addrOf(0)}
	if c.Signature(i1) == c.Signature(i2) {
		t.Fatal("unlabeled nodes must not be grouped")
	}
}

// TestUnlabeledNodeClassCannotBeDeclared pins that a signature names an
// unlabeled node by a class no description or relabel may declare, the
// one the slicer uses for it too: a declared class never shares a
// signature with an unlabeled node.
func TestUnlabeledNodeClassCannotBeDeclared(t *testing.T) {
	c, hosts := classifier()
	for _, n := range []topo.NodeID{99, hosts[0]} {
		for _, cls := range []Classifier{{Topo: c.Topo}, {HostClass: map[topo.NodeID]string{}, Topo: c.Topo}} {
			name := cls.NodeClass(n)
			if name != slices.ClassOf(nil, n) {
				t.Fatalf("node %d: the signature names its class %q, the slicer %q", n, name, slices.ClassOf(nil, n))
			}
			if slices.CheckClass(name) == nil {
				t.Fatalf("node %d: its class %q can be declared", n, name)
			}
		}
	}
}

// opaqueInv is an invariant type the classifier has no case for.
type opaqueInv struct {
	inv.Invariant // nil: only the name is read
	dst           topo.NodeID
	label         string
}

func (o opaqueInv) Name() string { return o.label }

// TestOpaqueSignatureIsContent pins that an invariant of a type without a
// case is signed by what it holds, not by its name: two such invariants
// that share a name but not their content never share a signature, with or
// without classes, and equal ones do.
func TestOpaqueSignatureIsContent(t *testing.T) {
	c, hosts := classifier()
	a, b := opaqueInv{dst: hosts[0], label: "same"}, opaqueInv{dst: hosts[1], label: "same"}
	for _, cls := range []Classifier{c, {Topo: c.Topo}} {
		if cls.Signature(a) == cls.Signature(b) {
			t.Fatalf("same-named invariants of different content share signature %q", cls.Signature(a))
		}
		if cls.Signature(a) != cls.Signature(opaqueInv{dst: hosts[0], label: "same"}) {
			t.Fatal("equal invariants must share a signature")
		}
	}
}

func TestGroupsAndReduction(t *testing.T) {
	c, hosts := classifier()
	invs := []inv.Invariant{
		inv.SimpleIsolation{Dst: hosts[0], SrcAddr: addrOf(2)},
		inv.SimpleIsolation{Dst: hosts[1], SrcAddr: addrOf(3)}, // symmetric to #0
		inv.SimpleIsolation{Dst: hosts[2], SrcAddr: addrOf(0)},
	}
	gs := Groups([]string{c.Signature(invs[0]), c.Signature(invs[1]), c.Signature(invs[2])}, invs)
	if len(gs) != 2 {
		t.Fatalf("groups = %d, want 2", len(gs))
	}
	if saved := len(invs) - len(gs); saved != 1 {
		t.Fatalf("reduction = %d, want 1", saved)
	}
	if gs[0].Representative != invs[0] || len(gs[0].Members) != 2 {
		t.Fatalf("group structure wrong: %+v", gs[0])
	}
}

// opaque is an invariant type the classifier does not know.
type opaque struct{ inv.SimpleIsolation }

func TestOpaqueInvariantsNeverGrouped(t *testing.T) {
	c, hosts := classifier()
	a := opaque{inv.SimpleIsolation{Dst: hosts[0], SrcAddr: addrOf(2), Label: "x"}}
	b := opaque{inv.SimpleIsolation{Dst: hosts[1], SrcAddr: addrOf(3), Label: "y"}}
	if c.Signature(a) == c.Signature(b) {
		t.Fatal("opaque invariants must get unique signatures")
	}
}

// TestCanonClasses: equal keys cluster (first-seen order, first member is
// the representative), nil keys stay singleton even when byte-equal
// neighbours exist, and the row-major scan order is preserved.
func TestCanonClasses(t *testing.T) {
	keys := map[[2]int][]byte{
		{0, 0}: []byte("k1"),
		{0, 1}: []byte("k2"),
		{1, 0}: []byte("k1"), // joins class of (0,0)
		{1, 1}: nil,          // singleton
		{2, 0}: nil,          // singleton, NOT merged with (1,1)
		{2, 1}: []byte("k2"), // joins class of (0,1)
	}
	classes := CanonClasses(3, 2, func(gi, si int) []byte { return keys[[2]int{gi, si}] })
	if len(classes) != 4 {
		t.Fatalf("got %d classes, want 4: %+v", len(classes), classes)
	}
	if classes[0].Key != "k1" || len(classes[0].Members) != 2 ||
		classes[0].Members[0] != (CheckRef{0, 0}) || classes[0].Members[1] != (CheckRef{1, 0}) {
		t.Fatalf("class 0 wrong: %+v", classes[0])
	}
	if classes[1].Key != "k2" || len(classes[1].Members) != 2 ||
		classes[1].Members[1] != (CheckRef{2, 1}) {
		t.Fatalf("class 1 wrong: %+v", classes[1])
	}
	for _, ci := range []int{2, 3} {
		if classes[ci].Key != "" || len(classes[ci].Members) != 1 {
			t.Fatalf("nil-keyed checks must stay singleton: %+v", classes[ci])
		}
	}
}
