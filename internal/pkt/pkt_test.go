package pkt

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("10.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "10.1.2.3" {
		t.Fatalf("round trip: %s", a)
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "-1.0.0.0"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParseAddr("not-an-addr")
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixMatches(t *testing.T) {
	p := Prefix{MustParseAddr("10.0.0.0"), 8}
	if !p.Matches(MustParseAddr("10.255.0.1")) {
		t.Fatal("/8 should match")
	}
	if p.Matches(MustParseAddr("11.0.0.1")) {
		t.Fatal("/8 should not match 11.x")
	}
	host := HostPrefix(MustParseAddr("10.0.0.1"))
	if !host.Matches(MustParseAddr("10.0.0.1")) || host.Matches(MustParseAddr("10.0.0.2")) {
		t.Fatal("host prefix wrong")
	}
	all := Prefix{0, 0}
	if !all.Matches(MustParseAddr("1.2.3.4")) {
		t.Fatal("/0 matches everything")
	}
}

func TestPrefixString(t *testing.T) {
	p := Prefix{MustParseAddr("10.0.0.0"), 8}
	if p.String() != "10.0.0.0/8" {
		t.Fatalf("got %s", p)
	}
	// The fmt-free rendering is the one fmt gave, at every kind of length.
	for _, a := range []string{"0.0.0.0", "10.1.2.0", "255.255.255.255", "192.168.100.7"} {
		for _, l := range []int{0, 1, 24, 31, 32} {
			p := Prefix{MustParseAddr(a), l}
			if got, want := p.String(), fmt.Sprintf("%s/%d", p.Addr, p.Len); got != want {
				t.Errorf("Prefix{%s, %d}.String() = %q, want %q", a, l, got, want)
			}
		}
	}
}

func TestFlowReverseInvolution(t *testing.T) {
	f := func(a1, a2 uint32, p1, p2 uint16) bool {
		fl := Flow{Endpoint{Addr(a1), Port(p1)}, Endpoint{Addr(a2), Port(p2)}, TCP}
		return fl.Reverse().Reverse() == fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowLessTotalOrder(t *testing.T) {
	f := func(a1, a2 uint32, p1, p2 uint16) bool {
		x := Flow{Endpoint{Addr(a1), Port(p1)}, Endpoint{Addr(a2), Port(p2)}, TCP}
		y := Flow{Endpoint{Addr(a2), Port(p2)}, Endpoint{Addr(a1), Port(p1)}, TCP}
		// Antisymmetric and total: exactly one of x<y, y<x, x==y.
		less, greater, equal := x.Less(y), y.Less(x), x == y
		n := 0
		for _, b := range []bool{less, greater, equal} {
			if b {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	a := Flow{Endpoint{1, 1}, Endpoint{2, 2}, TCP}
	b := Flow{Endpoint{1, 1}, Endpoint{2, 2}, UDP}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("proto must break ties")
	}
}

func TestFlowCanonicalSymmetric(t *testing.T) {
	f := func(a1, a2 uint32, p1, p2 uint16) bool {
		fl := Flow{Endpoint{Addr(a1), Port(p1)}, Endpoint{Addr(a2), Port(p2)}, UDP}
		return fl.Canonical() == fl.Reverse().Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowOf(t *testing.T) {
	h := Header{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20, Proto: UDP}
	fl := FlowOf(h)
	if fl.Src.Addr != 1 || fl.Dst.Port != 20 || fl.Proto != UDP {
		t.Fatalf("FlowOf wrong: %+v", fl)
	}
}

func TestHeaderString(t *testing.T) {
	h := Header{Src: MustParseAddr("1.2.3.4"), Dst: MustParseAddr("5.6.7.8"), SrcPort: 1, DstPort: 2}
	if got := h.String(); got == "" {
		t.Fatal("empty header string")
	}
}

func TestClassSetOps(t *testing.T) {
	var s ClassSet
	s = s.With(3).With(5)
	if !s.Has(3) || !s.Has(5) || s.Has(4) {
		t.Fatalf("membership wrong: %b", s)
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	s = s.Without(3)
	if s.Has(3) || s.Count() != 1 {
		t.Fatal("Without broken")
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	mal := r.Register("malicious")
	if again := r.Register("malicious"); again != mal {
		t.Fatal("re-register must return same class")
	}
	sky := r.Register("skype")
	if mal == sky {
		t.Fatal("distinct names must get distinct classes")
	}
	if c, ok := r.Lookup("skype"); !ok || c != sky {
		t.Fatal("lookup failed")
	}
	if _, ok := r.Lookup("absent"); ok {
		t.Fatal("lookup of absent name should fail")
	}
	if r.Name(mal) != "malicious" || r.Len() != 2 {
		t.Fatal("names/len wrong")
	}
}

func TestRegistryExclusive(t *testing.T) {
	r := NewRegistry()
	r.DeclareExclusive("skype", "jabber")
	sky, _ := r.Lookup("skype")
	jab, _ := r.Lookup("jabber")
	var both ClassSet
	both = both.With(sky).With(jab)
	if r.Consistent(both) {
		t.Fatal("skype+jabber should be inconsistent")
	}
	if !r.Consistent(ClassSet(0).With(sky)) {
		t.Fatal("single class should be consistent")
	}
}

func TestEnumerateConsistent(t *testing.T) {
	r := NewRegistry()
	r.DeclareExclusive("skype", "jabber")
	mal := r.Register("malicious")
	sky, _ := r.Lookup("skype")
	jab, _ := r.Lookup("jabber")
	relevant := ClassSet(0).With(sky).With(jab).With(mal)
	got := r.EnumerateConsistent(relevant)
	// 8 raw assignments minus 2 containing both skype and jabber.
	if len(got) != 6 {
		t.Fatalf("got %d assignments, want 6: %v", len(got), got)
	}
	for _, s := range got {
		if !r.Consistent(s) {
			t.Fatalf("inconsistent assignment enumerated: %s", r.String(s))
		}
	}
}

func TestEnumerateConsistentRestrictsToRelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Register("a")
	r.Register("b")
	got := r.EnumerateConsistent(ClassSet(0).With(a))
	if len(got) != 2 {
		t.Fatalf("only class a should vary: %v", got)
	}
}

func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	a := r.Register("alpha")
	b := r.Register("beta")
	if r.String(ClassSet(0)) != "{}" {
		t.Fatal("empty set render")
	}
	s := ClassSet(0).With(a).With(b)
	if r.String(s) != "{alpha,beta}" {
		t.Fatalf("got %s", r.String(s))
	}
}

func TestNilRegistryConsistent(t *testing.T) {
	var r *Registry
	if !r.Consistent(ClassSet(3)) {
		t.Fatal("nil registry must accept everything")
	}
}

func TestProtoString(t *testing.T) {
	if TCP.String() != "tcp" || UDP.String() != "udp" || ICMP.String() != "icmp" {
		t.Fatal("proto names")
	}
}
