package hsa

import (
	"fmt"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// pipelineTopo: internet -- sw1 -- fw -- sw2 -- cache -- sw3 -- h1
// with a bypass link sw1 -- sw3 used by misconfigured rules.
type fixture struct {
	t        *topo.Topology
	internet topo.NodeID
	sw1, sw3 topo.NodeID
	sw2      topo.NodeID
	fw       topo.NodeID
	cache    topo.NodeID
	h1       topo.NodeID
	h1Addr   pkt.Addr
}

func build() *fixture {
	f := &fixture{t: topo.New()}
	f.h1Addr = pkt.MustParseAddr("10.0.0.1")
	f.internet = f.t.AddExternal("internet", pkt.MustParseAddr("8.8.8.8"))
	f.sw1 = f.t.AddSwitch("sw1")
	f.sw2 = f.t.AddSwitch("sw2")
	f.sw3 = f.t.AddSwitch("sw3")
	f.fw = f.t.AddMiddlebox("fw", "firewall")
	f.cache = f.t.AddMiddlebox("cache", "cache")
	f.h1 = f.t.AddHost("h1", f.h1Addr)
	f.t.AddLink(f.internet, f.sw1)
	f.t.AddLink(f.sw1, f.fw)
	f.t.AddLink(f.fw, f.sw2)
	f.t.AddLink(f.sw2, f.cache)
	f.t.AddLink(f.cache, f.sw3)
	f.t.AddLink(f.sw3, f.h1)
	f.t.AddLink(f.sw1, f.sw3) // bypass
	return f
}

// goodFIB routes internet->h1 through fw then cache. The two middleboxes
// are dual-homed, so they carry their own egress rules (inside vs outside
// port), as an operator would configure.
func (f *fixture) goodFIB() tf.FIB {
	p := pkt.HostPrefix(f.h1Addr)
	ip := pkt.HostPrefix(pkt.MustParseAddr("8.8.8.8"))
	fib := tf.FIB{}
	fib.Add(f.sw1, tf.Rule{Match: p, In: f.internet, Out: f.fw, Priority: 10})
	fib.Add(f.sw2, tf.Rule{Match: p, In: f.fw, Out: f.cache, Priority: 10})
	fib.Add(f.sw3, tf.Rule{Match: p, In: f.cache, Out: f.h1, Priority: 10})
	fib.Add(f.fw, tf.Rule{Match: p, In: topo.NodeNone, Out: f.sw2, Priority: 10})
	fib.Add(f.fw, tf.Rule{Match: ip, In: topo.NodeNone, Out: f.sw1, Priority: 10})
	fib.Add(f.cache, tf.Rule{Match: p, In: topo.NodeNone, Out: f.sw3, Priority: 10})
	fib.Add(f.cache, tf.Rule{Match: ip, In: topo.NodeNone, Out: f.sw2, Priority: 10})
	return fib
}

// bypassFIB routes internet->h1 around both middleboxes via sw1-sw3.
func (f *fixture) bypassFIB() tf.FIB {
	p := pkt.HostPrefix(f.h1Addr)
	fib := tf.FIB{}
	fib.Add(f.sw1, tf.Rule{Match: p, In: f.internet, Out: f.sw3, Priority: 10})
	fib.Add(f.sw3, tf.Rule{Match: p, In: f.sw1, Out: f.h1, Priority: 10})
	return fib
}

func TestSequenceHolds(t *testing.T) {
	f := build()
	e := tf.New(f.t, f.goodFIB(), topo.NoFailures())
	inv := Sequence{Name: "fw-then-cache", From: f.internet,
		DstPrefix: pkt.HostPrefix(f.h1Addr), MBTypes: []string{"firewall", "cache"}}
	if vs := CheckSequence(f.t, e, inv); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestSequenceViolatedByBypass(t *testing.T) {
	f := build()
	e := tf.New(f.t, f.bypassFIB(), topo.NoFailures())
	inv := Sequence{Name: "fw-then-cache", From: f.internet,
		DstPrefix: pkt.HostPrefix(f.h1Addr), MBTypes: []string{"firewall", "cache"}}
	vs := CheckSequence(f.t, e, inv)
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %v", vs)
	}
	if vs[0].Dst != f.h1 {
		t.Fatalf("violation at wrong node: %+v", vs[0])
	}
	if !strings.Contains(vs[0].Error(), "fw-then-cache") {
		t.Fatalf("error message should name the invariant: %s", vs[0].Error())
	}
}

func TestSequenceWrongOrder(t *testing.T) {
	f := build()
	e := tf.New(f.t, f.goodFIB(), topo.NoFailures())
	inv := Sequence{Name: "cache-then-fw", From: f.internet,
		DstPrefix: pkt.HostPrefix(f.h1Addr), MBTypes: []string{"cache", "firewall"}}
	if vs := CheckSequence(f.t, e, inv); len(vs) != 1 {
		t.Fatalf("order must matter: %v", vs)
	}
}

func TestSequenceDropReported(t *testing.T) {
	f := build()
	e := tf.New(f.t, tf.FIB{}, topo.NoFailures()) // no routes: drop at sw1
	inv := Sequence{Name: "any", From: f.internet,
		DstPrefix: pkt.HostPrefix(f.h1Addr), MBTypes: nil}
	vs := CheckSequence(f.t, e, inv)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "dropped") {
		t.Fatalf("drop should be a violation: %v", vs)
	}
}

func TestIsSubsequence(t *testing.T) {
	cases := []struct {
		want, have []string
		ok         bool
	}{
		{nil, nil, true},
		{[]string{"a"}, []string{"x", "a"}, true},
		{[]string{"a", "b"}, []string{"a", "x", "b"}, true},
		{[]string{"a", "b"}, []string{"b", "a"}, false},
		{[]string{"a"}, nil, false},
	}
	for i, c := range cases {
		if got := isSubsequence(c.want, c.have); got != c.ok {
			t.Fatalf("case %d: got %v", i, got)
		}
	}
}

func dagFWCache(f *fixture) DAG {
	return DAG{
		Name: "dag", From: f.internet, DstPrefix: pkt.HostPrefix(f.h1Addr),
		Start:  "firewall",
		Edges:  map[string][]string{"firewall": {"cache"}},
		Accept: map[string]bool{"cache": true},
	}
}

func TestDAGHolds(t *testing.T) {
	f := build()
	e := tf.New(f.t, f.goodFIB(), topo.NoFailures())
	if vs := CheckDAG(f.t, e, dagFWCache(f)); len(vs) != 0 {
		t.Fatalf("unexpected: %v", vs)
	}
}

func TestDAGViolations(t *testing.T) {
	f := build()
	// Bypass: no middleboxes at all.
	e := tf.New(f.t, f.bypassFIB(), topo.NoFailures())
	vs := CheckDAG(f.t, e, dagFWCache(f))
	if len(vs) != 1 {
		t.Fatalf("want violation: %v", vs)
	}
	// Non-accepting end: only firewall required to continue to cache.
	inv := dagFWCache(f)
	inv.Accept = map[string]bool{"scrubber": true}
	e2 := tf.New(f.t, f.goodFIB(), topo.NoFailures())
	if vs := CheckDAG(f.t, e2, inv); len(vs) != 1 {
		t.Fatalf("non-accepting end should violate: %v", vs)
	}
}

func TestDAGEmptyWalk(t *testing.T) {
	// Empty walk is allowed exactly when the start node is accepting.
	inv := DAG{Start: "firewall", Accept: map[string]bool{"firewall": true}}
	if reason := walkDAG(inv, nil); reason != "" {
		t.Fatalf("empty walk with accepting start should pass: %s", reason)
	}
	if reason := walkDAG(inv, []string{"firewall"}); reason != "" {
		t.Fatalf("single start traversal should pass: %s", reason)
	}
	inv.Accept = map[string]bool{"cache": true}
	if reason := walkDAG(inv, nil); reason == "" {
		t.Fatal("empty walk with non-accepting start must fail")
	}
	if reason := walkDAG(inv, []string{"cache"}); reason == "" {
		t.Fatal("walk not beginning at start must fail")
	}
}

func TestAuditHealthy(t *testing.T) {
	f := build()
	p := pkt.HostPrefix(f.h1Addr)
	fib := f.goodFIB()
	// Also route h1 -> internet outward.
	ip := pkt.HostPrefix(pkt.MustParseAddr("8.8.8.8"))
	fib.Add(f.sw3, tf.Rule{Match: ip, In: f.h1, Out: f.sw1, Priority: 10})
	fib.Add(f.sw1, tf.Rule{Match: ip, In: f.sw3, Out: f.internet, Priority: 10})
	_ = p
	e := tf.New(f.t, fib, topo.NoFailures())
	a := AuditNetwork(f.t, e)
	if a.Pairs != 2 {
		t.Fatalf("pairs = %d", a.Pairs)
	}
	if a.Reachable != 2 || len(a.Loops) != 0 || len(a.Blackholes) != 0 {
		t.Fatalf("audit = %+v", a)
	}
}

func TestAuditLoopAndBlackhole(t *testing.T) {
	f := build()
	p := pkt.HostPrefix(f.h1Addr)
	fib := tf.FIB{}
	// internet->h1 loops between sw1 and sw3.
	fib.Add(f.sw1, tf.Rule{Match: p, In: topo.NodeNone, Out: f.sw3, Priority: 10})
	fib.Add(f.sw3, tf.Rule{Match: p, In: topo.NodeNone, Out: f.sw1, Priority: 10})
	// h1->internet has no route: blackhole.
	e := tf.New(f.t, fib, topo.NoFailures())
	a := AuditNetwork(f.t, e)
	if len(a.Loops) != 1 {
		t.Fatalf("want 1 loop, got %+v", a)
	}
	if len(a.Blackholes) != 1 {
		t.Fatalf("want 1 blackhole, got %+v", a)
	}
}

// Audit is a network-wide static health report in the HSA/VeriFlow style.
type Audit struct {
	Loops      []string // descriptions of forwarding loops
	Blackholes []string // src->dst pairs dropped by the fabric
	Reachable  int      // number of (src host, dst host) pairs that connect
	Pairs      int      // number of pairs checked
}

// AuditNetwork sweeps all host-to-host pairs through the transfer function
// and tabulates loops, blackholes and reachability.
func AuditNetwork(t *topo.Topology, e *tf.Engine) Audit {
	var a Audit
	hosts := append(t.NodesOfKind(topo.Host), t.NodesOfKind(topo.External)...)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			a.Pairs++
			_, err := e.Path(src, t.Node(dst).Addr)
			switch {
			case err == nil:
				a.Reachable++
			case isLoopErr(err):
				a.Loops = append(a.Loops, err.Error())
			default:
				a.Blackholes = append(a.Blackholes,
					fmt.Sprintf("%s -> %s", t.Node(src).Name, t.Node(dst).Name))
			}
		}
	}
	return a
}

func isLoopErr(err error) bool {
	for e := err; e != nil; {
		if e == tf.ErrLoop {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}
