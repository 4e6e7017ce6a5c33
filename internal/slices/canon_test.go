package slices

import (
	"bytes"
	"testing"

	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// twoPairNet builds a topology with two disjoint, structurally identical
// host pairs behind one switch each: {a1,a2|sw1} and {b1,b2|sw2}, with
// different addresses and node IDs. The canonical machinery must map the
// two pairs onto identical keys when serialized in corresponding order.
func twoPairNet() (*topo.Topology, *tf.Engine, [2][2]topo.NodeID, [2][2]pkt.Addr) {
	t := topo.New()
	addrs := [2][2]pkt.Addr{
		{pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")},
		{pkt.MustParseAddr("172.16.9.7"), pkt.MustParseAddr("172.16.9.8")},
	}
	var nodes [2][2]topo.NodeID
	fib := tf.FIB{}
	for p := 0; p < 2; p++ {
		sw := t.AddSwitch([]string{"sw1", "sw2"}[p])
		for h := 0; h < 2; h++ {
			id := t.AddHost([]string{"a1", "a2", "b1", "b2"}[p*2+h], addrs[p][h])
			t.AddLink(id, sw)
			nodes[p][h] = id
			fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(addrs[p][h]), In: topo.NodeNone, Out: id, Priority: 10})
		}
	}
	eng := tf.New(t, fib, topo.NoFailures())
	return t, eng, nodes, addrs
}

// serializePair runs the canonical serialization of one pair in a fixed
// structural order and returns the key and renaming.
func serializePair(t *topo.Topology, eng *tf.Engine, nodes [2]topo.NodeID, addrs [2]pkt.Addr) ([]byte, *Renaming) {
	c := NewCanonizer(t, eng)
	for h := 0; h < 2; h++ {
		c.Node(nodes[h])
		c.Addr(addrs[h])
	}
	c.Header(pkt.Header{Src: addrs[0], Dst: addrs[1], SrcPort: 1000, DstPort: 80})
	return c.Key(), c.Renaming()
}

// TestCanonizerIsomorphicPairsShareKeys: two renamed-but-identical slices
// must produce equal canonical keys, and the renamings must compose into
// a working translation in both directions.
func TestCanonizerIsomorphicPairsShareKeys(t *testing.T) {
	tp, eng, nodes, addrs := twoPairNet()
	keyA, renA := serializePair(tp, eng, nodes[0], addrs[0])
	keyB, renB := serializePair(tp, eng, nodes[1], addrs[1])
	if !bytes.Equal(keyA, keyB) {
		t.Fatalf("isomorphic pairs produced different canonical keys:\nA %x\nB %x", keyA, keyB)
	}

	// Node and address translation A → B.
	for h := 0; h < 2; h++ {
		n, ok := renA.TranslateNode(nodes[0][h], renB)
		if !ok || n != nodes[1][h] {
			t.Fatalf("node translation wrong: %v -> %v (ok=%v), want %v", nodes[0][h], n, ok, nodes[1][h])
		}
		a, ok := renA.TranslateAddr(addrs[0][h], renB)
		if !ok || a != addrs[1][h] {
			t.Fatalf("addr translation wrong: %v -> %v (ok=%v), want %v", addrs[0][h], a, ok, addrs[1][h])
		}
	}
	// Unknown names must fail loudly, not mistranslate.
	if _, ok := renA.TranslateAddr(pkt.MustParseAddr("1.2.3.4"), renB); ok {
		t.Fatal("translating an address outside the renaming must fail")
	}
	// Sentinels pass through.
	if n, ok := renA.TranslateNode(topo.NodeNone, renB); !ok || n != topo.NodeNone {
		t.Fatal("NodeNone must pass through translation")
	}
	if a, ok := renA.TranslateAddr(pkt.AddrNone, renB); !ok || a != pkt.AddrNone {
		t.Fatal("AddrNone must pass through translation")
	}
}

// TestCanonizerDistinguishesStructure: breaking the symmetry — a different
// destination port pattern, a different owner relation — must split keys.
func TestCanonizerDistinguishesStructure(t *testing.T) {
	tp, eng, nodes, addrs := twoPairNet()
	keyA, _ := serializePair(tp, eng, nodes[0], addrs[0])

	// Same slice content, reversed header direction: different key.
	c := NewCanonizer(tp, eng)
	for h := 0; h < 2; h++ {
		c.Node(nodes[0][h])
		c.Addr(addrs[0][h])
	}
	c.Header(pkt.Header{Src: addrs[0][1], Dst: addrs[0][0], SrcPort: 1000, DstPort: 80})
	if bytes.Equal(keyA, c.Key()) {
		t.Fatal("reversed alphabet direction must change the canonical key")
	}

	// Cross-pair mix (host from pair A, address owned by pair B's host):
	// the ownership section must split it from the within-pair key.
	c = NewCanonizer(tp, eng)
	c.Node(nodes[0][0])
	c.Addr(addrs[0][0])
	c.Node(nodes[0][1])
	c.Addr(addrs[1][1]) // not this node's address
	c.Header(pkt.Header{Src: addrs[0][0], Dst: addrs[1][1], SrcPort: 1000, DstPort: 80})
	if bytes.Equal(keyA, c.Key()) {
		t.Fatal("mismatched address ownership must change the canonical key")
	}
}

// TestCanonizerTranslateEvents: witness translation maps snd/rcv node and
// header names, leaves ports/content alone, ignores the Node filler on
// non-failure events, and translates fail-event subjects.
func TestCanonizerTranslateEvents(t *testing.T) {
	tp, eng, nodes, addrs := twoPairNet()
	_, renA := serializePair(tp, eng, nodes[0], addrs[0])
	_, renB := serializePair(tp, eng, nodes[1], addrs[1])

	evs := []logic.Event{
		{Kind: logic.EvSend, Src: nodes[0][0], Dst: nodes[0][1],
			Hdr: pkt.Header{Src: addrs[0][0], Dst: addrs[0][1], SrcPort: 1000, DstPort: 80}},
		{Kind: logic.EvRecv, Src: nodes[0][0], Dst: nodes[0][1], Node: 12345, // filler must be ignored
			Hdr: pkt.Header{Src: addrs[0][0], Dst: addrs[0][1], SrcPort: 1000, DstPort: 80}},
		{Kind: logic.EvFail, Node: nodes[0][1]},
	}
	out, ok := renA.TranslateEvents(evs, renB)
	if !ok {
		t.Fatal("translation failed")
	}
	if out[0].Src != nodes[1][0] || out[0].Dst != nodes[1][1] {
		t.Fatalf("snd nodes wrong: %+v", out[0])
	}
	if out[0].Hdr.Src != addrs[1][0] || out[0].Hdr.Dst != addrs[1][1] {
		t.Fatalf("snd header wrong: %+v", out[0].Hdr)
	}
	if out[0].Hdr.SrcPort != 1000 || out[0].Hdr.DstPort != 80 {
		t.Fatalf("ports must pass through: %+v", out[0].Hdr)
	}
	if out[1].Node != 12345 {
		t.Fatalf("non-failure Node filler must pass through untouched: %+v", out[1])
	}
	if out[2].Node != nodes[1][1] {
		t.Fatalf("fail-event subject must translate: %+v", out[2])
	}
	// Originals untouched.
	if evs[0].Src != nodes[0][0] {
		t.Fatal("translation mutated its input")
	}
}

// TestCanonizerPrefixSemantics: prefixes with equal match behaviour over
// the universe canonicalize together; differing behaviour splits.
func TestCanonizerPrefixSemantics(t *testing.T) {
	tp, eng, nodes, addrs := twoPairNet()

	mkKey := func(pair int, p pkt.Prefix) []byte {
		c := NewCanonizer(tp, eng)
		for h := 0; h < 2; h++ {
			c.Node(nodes[pair][h])
			c.Addr(addrs[pair][h])
		}
		if !c.Live(p) {
			t.Fatalf("prefix %v should match a universe address", p)
		}
		c.Prefix(p)
		return c.Key()
	}
	// Each pair's /24 covers exactly its own two hosts: same behaviour,
	// different concrete prefixes — keys must match.
	kA := mkKey(0, pkt.Prefix{Addr: pkt.MustParseAddr("10.0.0.0"), Len: 24})
	kB := mkKey(1, pkt.Prefix{Addr: pkt.MustParseAddr("172.16.9.0"), Len: 24})
	if !bytes.Equal(kA, kB) {
		t.Fatal("behaviour-equal prefixes must canonicalize together")
	}
	// A /32 matching only the first host behaves differently (and length
	// participates in rule tie-breaking): key must split.
	kC := mkKey(0, pkt.HostPrefix(addrs[0][0]))
	if bytes.Equal(kA, kC) {
		t.Fatal("behaviour-different prefixes must split the key")
	}
}
