package topo

import (
	"testing"

	"github.com/netverify/vmn/internal/pkt"
)

func addr(s string) pkt.Addr { return pkt.MustParseAddr(s) }

func TestAtomSetBasics(t *testing.T) {
	s := NewAtomSet([]pkt.Addr{addr("10.1.0.1"), addr("10.0.0.1"), addr("10.1.0.1"), pkt.AddrNone})
	if len(s) != 2 {
		t.Fatalf("dedup/drop-none failed: %v", s)
	}
	if s[0] != addr("10.0.0.1") || s[1] != addr("10.1.0.1") {
		t.Fatalf("not sorted: %v", s)
	}
	if !s.Contains(addr("10.0.0.1")) || s.Contains(addr("10.2.0.1")) {
		t.Fatal("Contains wrong")
	}
}

func TestAtomSetIntersectsPrefix(t *testing.T) {
	s := NewAtomSet([]pkt.Addr{addr("10.0.0.1"), addr("10.1.0.1"), addr("10.3.255.255")})
	cases := []struct {
		pfx  string
		len  int
		want bool
	}{
		{"10.0.0.0", 24, true},   // covers 10.0.0.1
		{"10.0.0.0", 32, false},  // exact miss
		{"10.0.0.1", 32, true},   // exact hit
		{"10.2.0.0", 16, false},  // between atoms
		{"10.3.0.0", 16, true},   // covers the top atom at its last address
		{"0.0.0.0", 0, true},     // the default route covers everything
		{"10.0.0.0", 14, true},   // wide prefix spanning several atoms
		{"11.0.0.0", 8, false},   // above all atoms
		{"9.255.0.0", 16, false}, // below all atoms
	}
	for _, c := range cases {
		p := pkt.Prefix{Addr: addr(c.pfx), Len: c.len}
		if got := s.IntersectsPrefix(p); got != c.want {
			t.Errorf("IntersectsPrefix(%s/%d) = %v, want %v", c.pfx, c.len, got, c.want)
		}
	}
	if AtomSet(nil).IntersectsPrefix(pkt.Prefix{}) {
		t.Error("empty set intersects nothing")
	}
}

func TestAtomSetUnion(t *testing.T) {
	a := NewAtomSet([]pkt.Addr{addr("10.0.0.1"), addr("10.0.0.3")})
	b := NewAtomSet([]pkt.Addr{addr("10.0.0.2"), addr("10.0.0.3")})
	u := a.Union(b)
	if len(u) != 3 || u[0] != addr("10.0.0.1") || u[1] != addr("10.0.0.2") || u[2] != addr("10.0.0.3") {
		t.Fatalf("union wrong: %v", u)
	}
	if got := a.Union(nil); len(got) != len(a) {
		t.Fatal("union with empty must keep the set")
	}
	if got := AtomSet(nil).Union(b); len(got) != len(b) {
		t.Fatal("empty union must return the other set")
	}
}

func TestAtomSetUnionSubsetReuse(t *testing.T) {
	a := NewAtomSet([]pkt.Addr{addr("10.0.0.1"), addr("10.0.0.3"), addr("10.0.0.5")})
	sub := NewAtomSet([]pkt.Addr{addr("10.0.0.1"), addr("10.0.0.5")})
	if got := a.Union(sub); &got[0] != &a[0] {
		t.Fatal("union with a subset must return the superset unchanged")
	}
	if got := sub.Union(a); &got[0] != &a[0] {
		t.Fatal("subset.Union(superset) must return the superset unchanged")
	}
	dis := NewAtomSet([]pkt.Addr{addr("10.0.0.2")})
	if got := a.Union(dis); len(got) != 4 {
		t.Fatalf("non-subset union wrong: %v", got)
	}
}

// BenchmarkAtomSetUnionSubset is the allocation regression guard for the
// Union fast paths: a union where one side contains the other must not
// allocate.
func BenchmarkAtomSetUnionSubset(b *testing.B) {
	var addrs []pkt.Addr
	for i := 0; i < 64; i++ {
		addrs = append(addrs, pkt.Addr(0x0a000000+i*7))
	}
	super := NewAtomSet(addrs)
	sub := NewAtomSet(addrs[:32])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := super.Union(sub); len(got) != len(super) {
			b.Fatal("union wrong")
		}
		if got := sub.Union(super); len(got) != len(super) {
			b.Fatal("union wrong")
		}
	}
	b.StopTimer()
	if testing.AllocsPerRun(100, func() { super.Union(sub) }) != 0 {
		b.Fatal("subset union must not allocate")
	}
}
