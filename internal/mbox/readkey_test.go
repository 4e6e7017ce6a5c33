package mbox

import (
	"bytes"
	"testing"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

func rkPfx(s string, l int) pkt.Prefix { return pkt.Prefix{Addr: pkt.MustParseAddr(s), Len: l} }

func readKey(m Model, universe topo.AtomSet) []byte {
	k, _ := ReadKey(nil, m, universe)
	return k
}

func exactKey(m Model) []byte {
	k, _ := ExactKey(nil, m)
	return k
}

// TestFirewallRuleReadKeyProjection: the rule-read key keeps exactly the
// live entries for a universe, so appending rules for unrelated address
// space leaves the projection (and hence every cached verdict keyed on it)
// unchanged, while touching a live rule or the default policy changes it.
func TestFirewallRuleReadKeyProjection(t *testing.T) {
	universe := topo.NewAtomSet([]pkt.Addr{
		pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.1.0.1"),
	})
	live := DenyEntry(rkPfx("10.0.0.0", 24), rkPfx("10.1.0.0", 24))
	halfDead := DenyEntry(rkPfx("10.0.0.0", 24), rkPfx("10.9.0.0", 24)) // dst misses universe
	dead := DenyEntry(rkPfx("10.8.0.0", 24), rkPfx("10.9.0.0", 24))

	base := &LearningFirewall{ACL: []ACLEntry{live}, DefaultAllow: true}
	key := func(fw *LearningFirewall) []byte { return readKey(fw, universe) }

	withDead := &LearningFirewall{ACL: []ACLEntry{dead, live, halfDead}, DefaultAllow: true}
	if !bytes.Equal(key(base), key(withDead)) {
		t.Fatal("dead entries must be invisible to the projection")
	}

	reordered := &LearningFirewall{ACL: []ACLEntry{live, DenyEntry(rkPfx("10.1.0.0", 24), rkPfx("10.0.0.0", 24))}, DefaultAllow: true}
	if bytes.Equal(key(base), key(reordered)) {
		t.Fatal("a second live entry must change the projection")
	}

	defaultDeny := &LearningFirewall{ACL: []ACLEntry{live}, DefaultAllow: false}
	if bytes.Equal(key(base), key(defaultDeny)) {
		t.Fatal("the default policy is always consulted and must be in the key")
	}

	// A wider universe can revive an entry: the projection is universe-
	// relative.
	wide := topo.NewAtomSet(append([]pkt.Addr{pkt.MustParseAddr("10.9.0.5")}, universe...))
	if bytes.Equal(readKey(base, wide), readKey(withDead, wide)) {
		t.Fatal("entries live under the wider universe must appear")
	}
}

// TestRuleReadKeyScalarModels: models whose whole configuration is
// consulted by every packet project to their full config key.
func TestRuleReadKeyScalarModels(t *testing.T) {
	universe := topo.NewAtomSet([]pkt.Addr{pkt.MustParseAddr("10.0.0.1")})
	n := &NAT{InstanceName: "n", NATAddr: pkt.MustParseAddr("10.7.0.1"), PortBase: 4000}
	if !bytes.Equal(readKey(n, universe), exactKey(n)) {
		t.Fatal("NAT projection must equal its full config key")
	}
	lb := &LoadBalancer{InstanceName: "l", VIP: pkt.MustParseAddr("10.7.0.2"),
		Backends: []pkt.Addr{pkt.MustParseAddr("10.7.0.3")}}
	if !bytes.Equal(readKey(lb, universe), exactKey(lb)) {
		t.Fatal("LB projection must equal its full config key")
	}
}

// TestIDPSRuleReadKeyProjection: watched prefixes outside the universe are
// invisible; the scrubber address is always consulted.
func TestIDPSRuleReadKeyProjection(t *testing.T) {
	universe := topo.NewAtomSet([]pkt.Addr{pkt.MustParseAddr("10.0.0.1")})
	a := &IDPS{InstanceName: "i", Watched: []pkt.Prefix{rkPfx("10.0.0.0", 24)}}
	b := &IDPS{InstanceName: "i", Watched: []pkt.Prefix{rkPfx("10.0.0.0", 24), rkPfx("10.9.0.0", 24)}}
	if !bytes.Equal(readKey(a, universe), readKey(b, universe)) {
		t.Fatal("dead watched prefixes must be invisible")
	}
	c := &IDPS{InstanceName: "i", Watched: []pkt.Prefix{rkPfx("10.0.0.0", 24)}, Scrubber: pkt.MustParseAddr("10.9.0.9")}
	if bytes.Equal(readKey(a, universe), readKey(c, universe)) {
		t.Fatal("the scrubber address must be in the key")
	}
}
