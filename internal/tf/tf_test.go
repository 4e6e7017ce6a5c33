package tf

import (
	"errors"
	"testing"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// lineTopo builds h1 - sw1 - sw2 - h2 with a firewall hanging off sw2:
//
//	h1 -- sw1 -- sw2 -- h2
//	              |
//	             fw
func lineTopo() (*topo.Topology, map[string]topo.NodeID) {
	t := topo.New()
	ids := map[string]topo.NodeID{}
	ids["h1"] = t.AddHost("h1", pkt.MustParseAddr("10.0.0.1"))
	ids["h2"] = t.AddHost("h2", pkt.MustParseAddr("10.0.0.2"))
	ids["sw1"] = t.AddSwitch("sw1")
	ids["sw2"] = t.AddSwitch("sw2")
	ids["fw"] = t.AddMiddlebox("fw", "firewall")
	t.AddLink(ids["h1"], ids["sw1"])
	t.AddLink(ids["sw1"], ids["sw2"])
	t.AddLink(ids["sw2"], ids["h2"])
	t.AddLink(ids["sw2"], ids["fw"])
	return t, ids
}

func addrOf(t *topo.Topology, id topo.NodeID) pkt.Addr { return t.Node(id).Addr }

func TestDirectForwarding(t *testing.T) {
	tp, ids := lineTopo()
	fib := FIB{}
	fib.Add(ids["sw1"], Rule{Match: pkt.HostPrefix(addrOf(tp, ids["h2"])), In: topo.NodeNone, Out: ids["sw2"]})
	fib.Add(ids["sw2"], Rule{Match: pkt.HostPrefix(addrOf(tp, ids["h2"])), In: topo.NodeNone, Out: ids["h2"]})
	e := New(tp, fib, topo.NoFailures())
	next, ok, err := e.Next(ids["h1"], addrOf(tp, ids["h2"]))
	if err != nil || !ok || next != ids["h2"] {
		t.Fatalf("next=%v ok=%v err=%v", next, ok, err)
	}
}

func TestThroughMiddlebox(t *testing.T) {
	tp, ids := lineTopo()
	h2 := pkt.HostPrefix(addrOf(tp, ids["h2"]))
	fib := FIB{}
	fib.Add(ids["sw1"], Rule{Match: h2, In: topo.NodeNone, Out: ids["sw2"]})
	// Packets to h2 go through fw first; packets from fw go to h2.
	fib.Add(ids["sw2"], Rule{Match: h2, In: ids["fw"], Out: ids["h2"], Priority: 10})
	fib.Add(ids["sw2"], Rule{Match: h2, In: topo.NodeNone, Out: ids["fw"], Priority: 0})
	e := New(tp, fib, topo.NoFailures())

	next, ok, err := e.Next(ids["h1"], h2.Addr)
	if err != nil || !ok || next != ids["fw"] {
		t.Fatalf("first hop should be fw: next=%v ok=%v err=%v", next, ok, err)
	}
	// From the firewall, the packet surfaces at h2.
	next, ok, err = e.Next(ids["fw"], h2.Addr)
	if err != nil || !ok || next != ids["h2"] {
		t.Fatalf("second hop should be h2: next=%v ok=%v err=%v", next, ok, err)
	}
	// Path sees fw then h2.
	path, err := e.Path(ids["h1"], h2.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0] != ids["fw"] || path[1] != ids["h2"] {
		t.Fatalf("path = %v", path)
	}
}

func TestBlackhole(t *testing.T) {
	tp, ids := lineTopo()
	e := New(tp, FIB{}, topo.NoFailures())
	// sw1 has no rules and is not an edge node: drop.
	_, ok, err := e.Next(ids["h1"], addrOf(tp, ids["h2"]))
	if err != nil || ok {
		t.Fatalf("expected drop, got ok=%v err=%v", ok, err)
	}
	if _, err := e.Path(ids["h1"], addrOf(tp, ids["h2"])); err == nil {
		t.Fatal("Path should report the drop")
	}
}

func TestLoopDetection(t *testing.T) {
	tp, ids := lineTopo()
	h2 := pkt.HostPrefix(addrOf(tp, ids["h2"]))
	fib := FIB{}
	fib.Add(ids["sw1"], Rule{Match: h2, In: topo.NodeNone, Out: ids["sw2"]})
	fib.Add(ids["sw2"], Rule{Match: h2, In: topo.NodeNone, Out: ids["sw1"]})
	e := New(tp, fib, topo.NoFailures())
	_, _, err := e.Next(ids["h1"], h2.Addr)
	if !errors.Is(err, ErrLoop) {
		t.Fatalf("expected ErrLoop, got %v", err)
	}
	if _, err := e.Matrix(); !errors.Is(err, ErrLoop) {
		t.Fatalf("Matrix should surface the loop, got %v", err)
	}
}

func TestPriorityAndBackupUnderFailure(t *testing.T) {
	// Two parallel firewalls; traffic prefers fw1, uses fw2 when fw1 failed.
	tp := topo.New()
	h1 := tp.AddHost("h1", pkt.MustParseAddr("10.0.0.1"))
	h2 := tp.AddHost("h2", pkt.MustParseAddr("10.0.0.2"))
	sw := tp.AddSwitch("sw")
	fw1 := tp.AddMiddlebox("fw1", "firewall")
	fw2 := tp.AddMiddlebox("fw2", "firewall")
	tp.AddLink(h1, sw)
	tp.AddLink(h2, sw)
	tp.AddLink(fw1, sw)
	tp.AddLink(fw2, sw)
	h2p := pkt.HostPrefix(pkt.MustParseAddr("10.0.0.2"))
	fib := FIB{}
	fib.Add(sw, Rule{Match: h2p, In: fw1, Out: h2, Priority: 30})
	fib.Add(sw, Rule{Match: h2p, In: fw2, Out: h2, Priority: 30})
	fib.Add(sw, Rule{Match: h2p, In: topo.NodeNone, Out: fw1, Priority: 20})
	fib.Add(sw, Rule{Match: h2p, In: topo.NodeNone, Out: fw2, Priority: 10})

	e := New(tp, fib, topo.NoFailures())
	next, ok, err := e.Next(h1, h2p.Addr)
	if err != nil || !ok || next != fw1 {
		t.Fatalf("healthy: next=%v ok=%v err=%v (want fw1=%v)", next, ok, err, fw1)
	}

	// Note: failed middleboxes still receive packets (their fail-open/closed
	// semantics are the middlebox model's concern, §3.4), but failed
	// switches are routed around. Routing to a failed middlebox is exactly
	// the redundancy scenario of §5.1 — the static datapath does not
	// change, so fw1 still gets the traffic.
	ef := New(tp, fib, topo.Failures(fw1))
	next, ok, err = ef.Next(h1, h2p.Addr)
	if err != nil || !ok || next != fw1 {
		t.Fatalf("middlebox failure must not silently reroute: next=%v ok=%v err=%v", next, ok, err)
	}
}

func TestRerouteAroundFailedSwitch(t *testing.T) {
	// h1 - swA - swC - h2 with backup swB parallel to swA's next hop.
	tp := topo.New()
	h1 := tp.AddHost("h1", pkt.MustParseAddr("10.0.0.1"))
	h2 := tp.AddHost("h2", pkt.MustParseAddr("10.0.0.2"))
	swA := tp.AddSwitch("swA")
	swB := tp.AddSwitch("swB")
	swC := tp.AddSwitch("swC")
	tp.AddLink(h1, swA)
	tp.AddLink(swA, swB)
	tp.AddLink(swA, swC)
	tp.AddLink(swB, h2)
	tp.AddLink(swC, h2)
	h2p := pkt.HostPrefix(pkt.MustParseAddr("10.0.0.2"))
	fib := FIB{}
	fib.Add(swA, Rule{Match: h2p, In: topo.NodeNone, Out: swC, Priority: 10}) // primary
	fib.Add(swA, Rule{Match: h2p, In: topo.NodeNone, Out: swB, Priority: 5})  // backup
	fib.Add(swB, Rule{Match: h2p, In: topo.NodeNone, Out: h2})
	fib.Add(swC, Rule{Match: h2p, In: topo.NodeNone, Out: h2})

	e := New(tp, fib, topo.NoFailures())
	if next, _, _ := e.Next(h1, h2p.Addr); next != h2 {
		t.Fatalf("healthy path broken: %v", next)
	}
	ef := New(tp, fib, topo.Failures(swC))
	next, ok, err := ef.Next(h1, h2p.Addr)
	if err != nil || !ok || next != h2 {
		t.Fatalf("backup path not used: next=%v ok=%v err=%v", next, ok, err)
	}
}

func TestLongestPrefixWins(t *testing.T) {
	tp := topo.New()
	h1 := tp.AddHost("h1", pkt.MustParseAddr("10.0.0.1"))
	hSpec := tp.AddHost("h-spec", pkt.MustParseAddr("10.1.0.1"))
	hGen := tp.AddHost("h-gen", pkt.MustParseAddr("10.2.0.1"))
	sw := tp.AddSwitch("sw")
	tp.AddLink(h1, sw)
	tp.AddLink(hSpec, sw)
	tp.AddLink(hGen, sw)
	fib := FIB{}
	fib.Add(sw, Rule{Match: pkt.Prefix{Addr: pkt.MustParseAddr("10.0.0.0"), Len: 8}, In: topo.NodeNone, Out: hGen})
	fib.Add(sw, Rule{Match: pkt.Prefix{Addr: pkt.MustParseAddr("10.1.0.0"), Len: 16}, In: topo.NodeNone, Out: hSpec})
	e := New(tp, fib, topo.NoFailures())
	if next, _, _ := e.Next(h1, pkt.MustParseAddr("10.1.0.1")); next != hSpec {
		t.Fatalf("longest prefix should win, got %v", next)
	}
	if next, _, _ := e.Next(h1, pkt.MustParseAddr("10.2.0.1")); next != hGen {
		t.Fatalf("general prefix should catch rest, got %v", next)
	}
}

func TestImplicitDefaultSingleLink(t *testing.T) {
	// A host with one link forwards into the fabric without explicit rules.
	tp, ids := lineTopo()
	h2 := pkt.HostPrefix(addrOf(tp, ids["h2"]))
	fib := FIB{}
	fib.Add(ids["sw1"], Rule{Match: h2, In: topo.NodeNone, Out: ids["sw2"]})
	fib.Add(ids["sw2"], Rule{Match: h2, In: topo.NodeNone, Out: ids["h2"]})
	e := New(tp, fib, topo.NoFailures())
	if next, ok, _ := e.Next(ids["h1"], h2.Addr); !ok || next != ids["h2"] {
		t.Fatalf("implicit default failed: %v %v", next, ok)
	}
}

func TestMatrix(t *testing.T) {
	tp, ids := lineTopo()
	h1a, h2a := addrOf(tp, ids["h1"]), addrOf(tp, ids["h2"])
	fib := FIB{}
	fib.Add(ids["sw1"], Rule{Match: pkt.HostPrefix(h2a), In: topo.NodeNone, Out: ids["sw2"]})
	fib.Add(ids["sw1"], Rule{Match: pkt.HostPrefix(h1a), In: topo.NodeNone, Out: ids["h1"]})
	fib.Add(ids["sw2"], Rule{Match: pkt.HostPrefix(h2a), In: topo.NodeNone, Out: ids["h2"]})
	fib.Add(ids["sw2"], Rule{Match: pkt.HostPrefix(h1a), In: topo.NodeNone, Out: ids["sw1"]})
	e := New(tp, fib, topo.NoFailures())
	m, err := e.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	// Edge nodes: h1, h2, fw; hosts as dests: h1, h2 → rows: h1→h2, h2→h1, fw→h1, fw→h2.
	if len(m) != 4 {
		t.Fatalf("matrix rows = %d, want 4: %+v", len(m), m)
	}
	found := false
	for _, row := range m {
		if row.From == ids["h1"] && row.DstHost == ids["h2"] {
			found = true
			if row.Via != ids["h2"] || row.Dropped {
				t.Fatalf("h1->h2 row wrong: %+v", row)
			}
		}
	}
	if !found {
		t.Fatal("missing h1->h2 row")
	}
}

func TestNextFromSwitchErrors(t *testing.T) {
	tp, ids := lineTopo()
	e := New(tp, FIB{}, topo.NoFailures())
	if _, _, err := e.Next(ids["sw1"], addrOf(tp, ids["h2"])); err == nil {
		t.Fatal("starting at a switch must error")
	}
}

// TestConsultedTables pins the table-read/liveness-read split: a walk's
// FIB reads are the nodes where hop decisions are evaluated — the start
// edge node, crossed fabric nodes, the dropping node — while failed rule
// targets routed around, implicit-default neighbors and the terminal edge
// node are liveness reads only.
func TestConsultedTables(t *testing.T) {
	// h1 - swA - swC - h2 with backup swB; swC failed, so swA reads swC's
	// LIVENESS (skipped rule target) but never its table.
	tp := topo.New()
	h1 := tp.AddHost("h1", pkt.MustParseAddr("10.0.0.1"))
	h2 := tp.AddHost("h2", pkt.MustParseAddr("10.0.0.2"))
	swA := tp.AddSwitch("swA")
	swB := tp.AddSwitch("swB")
	swC := tp.AddSwitch("swC")
	tp.AddLink(h1, swA)
	tp.AddLink(swA, swB)
	tp.AddLink(swA, swC)
	tp.AddLink(swB, h2)
	tp.AddLink(swC, h2)
	h2p := pkt.HostPrefix(pkt.MustParseAddr("10.0.0.2"))
	fib := FIB{}
	fib.Add(swA, Rule{Match: h2p, In: topo.NodeNone, Out: swC, Priority: 10})
	fib.Add(swA, Rule{Match: h2p, In: topo.NodeNone, Out: swB, Priority: 5})
	fib.Add(swB, Rule{Match: h2p, In: topo.NodeNone, Out: h2})
	fib.Add(swC, Rule{Match: h2p, In: topo.NodeNone, Out: h2})

	has := func(ns []topo.NodeID, n topo.NodeID) bool {
		for _, x := range ns {
			if x == n {
				return true
			}
		}
		return false
	}

	ef := New(tp, fib, topo.Failures(swC))
	consulted := ef.Consulted(h1, h2p.Addr)
	tables := ef.ConsultedTables(h1, h2p.Addr)
	if !has(consulted, swC) {
		t.Fatalf("failed target swC is a liveness read, must be consulted: %v", consulted)
	}
	if has(tables, swC) {
		t.Fatalf("swC's table is never read (rule skipped on liveness): %v", tables)
	}
	for _, n := range []topo.NodeID{h1, swA, swB} {
		if !has(tables, n) {
			t.Fatalf("hop-decision node %v missing from table reads %v", n, tables)
		}
	}
	if has(tables, h2) {
		t.Fatalf("terminal edge node's table is never read: %v", tables)
	}
	// Table reads are a subset of the consulted set.
	for _, n := range tables {
		if !has(consulted, n) {
			t.Fatalf("table read %v missing from consulted %v", n, consulted)
		}
	}

	// A dropped walk still read the dropping node's (possibly empty) table
	// — the NEGATIVE read that makes later rule installs dirty the check:
	// only swA routes, swB has no table and drops.
	fib3 := FIB{}
	fib3.Add(swA, Rule{Match: h2p, In: topo.NodeNone, Out: swB})
	e3 := New(tp, fib3, topo.NoFailures())
	if _, ok, err := e3.Next(h1, h2p.Addr); ok || err != nil {
		t.Fatalf("walk should drop at swB: ok=%v err=%v", ok, err)
	}
	tables3 := e3.ConsultedTables(h1, h2p.Addr)
	if !has(tables3, swB) {
		t.Fatalf("dropping node swB must be a table read: %v", tables3)
	}
}

func TestMemoization(t *testing.T) {
	tp, ids := lineTopo()
	h2 := pkt.HostPrefix(addrOf(tp, ids["h2"]))
	fib := FIB{}
	fib.Add(ids["sw1"], Rule{Match: h2, In: topo.NodeNone, Out: ids["sw2"]})
	fib.Add(ids["sw2"], Rule{Match: h2, In: topo.NodeNone, Out: ids["h2"]})
	e := New(tp, fib, topo.NoFailures())
	a, okA, _ := e.Next(ids["h1"], h2.Addr)
	b, okB, _ := e.Next(ids["h1"], h2.Addr)
	if a != b || okA != okB {
		t.Fatal("memoized result differs")
	}
}

// Entry is one row of the compiled pseudo-switch: packets at From destined
// to an address owned by DstHost surface next at Via.
type Entry struct {
	From    topo.NodeID
	DstHost topo.NodeID
	Via     topo.NodeID
	Dropped bool
}

// Matrix compiles the transfer function into explicit rows, one per
// (edge node, destination host) pair, through Next. It fails on any
// forwarding loop.
func (e *Engine) Matrix() ([]Entry, error) {
	var dests []topo.NodeID
	for _, id := range e.topo.EdgeNodes() {
		n := e.topo.Node(id)
		if n.Kind == topo.Host || n.Kind == topo.External {
			dests = append(dests, id)
		}
	}
	var out []Entry
	for _, from := range e.topo.EdgeNodes() {
		for _, d := range dests {
			if from == d {
				continue
			}
			via, ok, err := e.Next(from, e.topo.Node(d).Addr)
			if err != nil {
				return nil, err
			}
			out = append(out, Entry{From: from, DstHost: d, Via: via, Dropped: !ok})
		}
	}
	return out, nil
}

// TestPathErrors pins Path's error text for a drop and for middlebox
// cycles, one through the box the walk started at.
func TestPathErrors(t *testing.T) {
	tp, ids := lineTopo()
	fw2 := tp.AddMiddlebox("fw2", "firewall")
	tp.AddLink(ids["sw2"], fw2)
	h2 := pkt.HostPrefix(addrOf(tp, ids["h2"]))
	fib := FIB{}
	fib.Add(ids["sw1"], Rule{Match: h2, In: topo.NodeNone, Out: ids["sw2"]})
	fib.Add(ids["sw2"], Rule{Match: h2, In: ids["fw"], Out: fw2, Priority: 10})
	fib.Add(ids["sw2"], Rule{Match: h2, In: topo.NodeNone, Out: ids["fw"]})
	e := New(tp, fib, topo.NoFailures())
	for _, c := range []struct {
		from topo.NodeID
		dst  pkt.Addr
		want string
	}{
		{ids["h1"], h2.Addr, "tf: static forwarding loop: middlebox cycle through fw"},
		{ids["fw"], h2.Addr, "tf: static forwarding loop: middlebox cycle through fw"},
		{fw2, h2.Addr, "tf: static forwarding loop: middlebox cycle through fw2"},
		{ids["h2"], addrOf(tp, ids["h1"]), "tf: packet from h2 to 10.0.0.1 dropped at h2"},
	} {
		_, err := e.Path(c.from, c.dst)
		if err == nil || err.Error() != c.want {
			t.Errorf("Path(%s, %s) = %v, want %q", tp.Node(c.from).Name, c.dst, err, c.want)
		}
	}
}
