// Package testnet builds small canonical networks used by engine tests,
// cross-engine property tests and examples: a firewalled pair of hosts, a
// private-subnet enterprise fragment, a cached storage group and an
// IDS+scrubber ISP fragment. Each builder returns a ready inv.Problem;
// callers tweak ACLs/FIBs to inject the paper's misconfigurations.
package testnet

import (
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// FirewallPair is a two-host network with a stateful firewall on the path:
//
//	hA -- sw -- hB, with fw hanging off sw; all hA<->hB traffic crosses fw.
type FirewallPair struct {
	Topo     *topo.Topology
	HA, HB   topo.NodeID
	FW       topo.NodeID
	AddrA    pkt.Addr
	AddrB    pkt.Addr
	Firewall *mbox.LearningFirewall
	FIB      tf.FIB
}

// NewFirewallPair builds the fixture with the given firewall configuration.
func NewFirewallPair(fw *mbox.LearningFirewall) *FirewallPair {
	f := &FirewallPair{AddrA: pkt.MustParseAddr("10.0.0.1"), AddrB: pkt.MustParseAddr("10.0.0.2"), Firewall: fw}
	t := topo.New()
	f.HA = t.AddHost("hA", f.AddrA)
	f.HB = t.AddHost("hB", f.AddrB)
	sw := t.AddSwitch("sw")
	f.FW = t.AddMiddlebox("fw", "firewall")
	t.AddLink(f.HA, sw)
	t.AddLink(f.HB, sw)
	t.AddLink(f.FW, sw)
	fib := tf.FIB{}
	for _, h := range []struct {
		node topo.NodeID
		addr pkt.Addr
	}{{f.HA, f.AddrA}, {f.HB, f.AddrB}} {
		p := pkt.HostPrefix(h.addr)
		fib.Add(sw, tf.Rule{Match: p, In: f.FW, Out: h.node, Priority: 20})
		fib.Add(sw, tf.Rule{Match: p, In: topo.NodeNone, Out: f.FW, Priority: 10})
	}
	f.Topo = t
	f.FIB = fib
	return f
}

// Problem builds a verification problem over the pair for the given
// invariant; samples cover both directions on two distinct flows.
func (f *FirewallPair) Problem(invariant inv.Invariant, scenario topo.FailureScenario) *inv.Problem {
	samples := []inv.Sample{
		{Sender: f.HA, Hdr: hdrOf(f.AddrA, f.AddrB, 1000, 80)},
		{Sender: f.HB, Hdr: hdrOf(f.AddrB, f.AddrA, 80, 1000)},  // reverse of the first
		{Sender: f.HB, Hdr: hdrOf(f.AddrB, f.AddrA, 2000, 443)}, // independent flow
	}
	return &inv.Problem{
		Topo:      f.Topo,
		TF:        tf.New(f.Topo, f.FIB, scenario),
		Boxes:     []mbox.Instance{{Node: f.FW, Model: f.Firewall}},
		Registry:  pkt.NewRegistry(),
		Samples:   samples,
		MaxSends:  3,
		Scenario:  scenario,
		Invariant: invariant,
	}
}

func hdrOf(src, dst pkt.Addr, sp, dp pkt.Port) pkt.Header {
	return pkt.Header{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: pkt.TCP}
}

// CacheGroup is the §5.2 data-isolation fixture: two clients and a cache
// share an edge switch; the origin server sits behind a group firewall.
//
//	h1, h2, cache -- sw1 -- fw -- sw2 -- server
//
// Requests to the server pass the cache (filling it on the way back); the
// firewall separates the client side from the server. h1 is in the
// server's policy group, h2 is not.
type CacheGroup struct {
	Topo                *topo.Topology
	H1, H2, Server      topo.NodeID
	CacheNode, FWNode   topo.NodeID
	Addr1, Addr2, AddrS pkt.Addr
	Cache               *mbox.ContentCache
	Firewall            *mbox.LearningFirewall
	FIB                 tf.FIB
}

// NewCacheGroup wires the fixture around the given cache and firewall.
func NewCacheGroup(cache *mbox.ContentCache, fw *mbox.LearningFirewall) *CacheGroup {
	g := &CacheGroup{
		Addr1: pkt.MustParseAddr("10.0.0.1"),
		Addr2: pkt.MustParseAddr("10.0.1.1"),
		AddrS: pkt.MustParseAddr("10.2.0.1"),
		Cache: cache, Firewall: fw,
	}
	t := topo.New()
	g.H1 = t.AddHost("h1", g.Addr1)
	g.H2 = t.AddHost("h2", g.Addr2)
	g.Server = t.AddHost("server", g.AddrS)
	sw1 := t.AddSwitch("sw1")
	sw2 := t.AddSwitch("sw2")
	g.CacheNode = t.AddMiddlebox("cache", "cache")
	g.FWNode = t.AddMiddlebox("fw", "firewall")
	t.AddLink(g.H1, sw1)
	t.AddLink(g.H2, sw1)
	t.AddLink(g.CacheNode, sw1)
	t.AddLink(sw1, g.FWNode)
	t.AddLink(g.FWNode, sw2)
	t.AddLink(sw2, g.Server)

	srv := pkt.HostPrefix(g.AddrS)
	fib := tf.FIB{}
	// Requests toward the server: clients -> cache -> fw -> sw2 -> server.
	fib.Add(sw1, tf.Rule{Match: srv, In: g.CacheNode, Out: g.FWNode, Priority: 30})
	fib.Add(sw1, tf.Rule{Match: srv, In: topo.NodeNone, Out: g.CacheNode, Priority: 10})
	fib.Add(sw2, tf.Rule{Match: srv, In: topo.NodeNone, Out: g.Server, Priority: 10})
	// Responses toward clients: server -> fw -> cache -> client.
	for _, c := range []struct {
		node topo.NodeID
		addr pkt.Addr
	}{{g.H1, g.Addr1}, {g.H2, g.Addr2}} {
		p := pkt.HostPrefix(c.addr)
		fib.Add(sw2, tf.Rule{Match: p, In: topo.NodeNone, Out: g.FWNode, Priority: 10})
		fib.Add(sw1, tf.Rule{Match: p, In: g.FWNode, Out: g.CacheNode, Priority: 30})
		fib.Add(sw1, tf.Rule{Match: p, In: g.CacheNode, Out: c.node, Priority: 25})
		fib.Add(sw1, tf.Rule{Match: p, In: topo.NodeNone, Out: c.node, Priority: 5})
	}
	// The dual-homed firewall's own egress routing.
	fib.Add(g.FWNode, tf.Rule{Match: srv, In: topo.NodeNone, Out: sw2, Priority: 10})
	fib.Add(g.FWNode, tf.Rule{Match: pkt.Prefix{Addr: 0, Len: 0}, In: topo.NodeNone, Out: sw1, Priority: 5})

	g.Topo = t
	g.FIB = fib
	return g
}

// Problem builds the data-isolation problem: may dst receive data
// originating at the server?
func (g *CacheGroup) Problem(invariant inv.Invariant) *inv.Problem {
	const cid = 7
	samples := []inv.Sample{
		{Sender: g.H1, Hdr: reqOf(g.Addr1, g.AddrS, cid)},
		{Sender: g.H2, Hdr: reqOf(g.Addr2, g.AddrS, cid)},
		{Sender: g.Server, Hdr: respOf(g.AddrS, g.Addr1, cid)},
		{Sender: g.Server, Hdr: respOf(g.AddrS, g.Addr2, cid)},
	}
	return &inv.Problem{
		Topo:      g.Topo,
		TF:        tf.New(g.Topo, g.FIB, topo.NoFailures()),
		Boxes:     []mbox.Instance{{Node: g.CacheNode, Model: g.Cache}, {Node: g.FWNode, Model: g.Firewall}},
		Registry:  pkt.NewRegistry(),
		Samples:   samples,
		MaxSends:  4,
		Invariant: invariant,
	}
}

func reqOf(src, dst pkt.Addr, cid uint32) pkt.Header {
	return pkt.Header{Src: src, Dst: dst, SrcPort: 1000, DstPort: 80, Proto: pkt.TCP, ContentID: cid}
}

func respOf(origin, dst pkt.Addr, cid uint32) pkt.Header {
	return pkt.Header{Src: origin, Dst: dst, SrcPort: 80, DstPort: 1000, Proto: pkt.TCP, Origin: origin, ContentID: cid}
}

// IDSFragment is the §5.3.3 fixture: an external peer, an IDS box, a
// scrubber and a protected host.
//
//	peer -- sw1 -- ids -- sw2 -- host, scrubber off sw2.
//
// Traffic from the peer crosses the IDS; once the IDS flags the host's
// prefix, traffic is tunnelled to the scrubber, which drops attack
// traffic and forwards the rest.
type IDSFragment struct {
	Topo                 *topo.Topology
	Peer, Host           topo.NodeID
	IDSNode, ScrubNode   topo.NodeID
	AddrPeer, AddrHost   pkt.Addr
	AddrScrub            pkt.Addr
	IDS                  *mbox.IDPS
	Scrubber             *mbox.Scrubber
	Registry             *pkt.Registry
	FIB                  tf.FIB
	BypassFirewallToHost bool
}

// NewIDSFragment wires the fixture; reg must have the malicious/attack
// classes registered (NewIDSRegistry does).
func NewIDSFragment(reg *pkt.Registry) *IDSFragment {
	f := &IDSFragment{
		AddrPeer:  pkt.MustParseAddr("8.0.0.1"),
		AddrHost:  pkt.MustParseAddr("10.0.0.1"),
		AddrScrub: pkt.MustParseAddr("100.0.0.9"),
		Registry:  reg,
	}
	hostPfx := pkt.Prefix{Addr: f.AddrHost, Len: 24}
	f.IDS = mbox.NewIDPS("ids", reg, f.AddrScrub, hostPfx)
	f.Scrubber = mbox.NewScrubber("sb", reg)

	t := topo.New()
	f.Peer = t.AddExternal("peer", f.AddrPeer)
	f.Host = t.AddHost("host", f.AddrHost)
	sw1 := t.AddSwitch("sw1")
	sw2 := t.AddSwitch("sw2")
	f.IDSNode = t.AddMiddlebox("ids", "idps")
	f.ScrubNode = t.AddMiddlebox("sb", "scrubber")
	t.AddLink(f.Peer, sw1)
	t.AddLink(sw1, f.IDSNode)
	t.AddLink(f.IDSNode, sw2)
	t.AddLink(sw2, f.Host)
	t.AddLink(sw2, f.ScrubNode)

	host := pkt.HostPrefix(f.AddrHost)
	scrub := pkt.HostPrefix(f.AddrScrub)
	peer := pkt.HostPrefix(f.AddrPeer)
	fib := tf.FIB{}
	fib.Add(sw1, tf.Rule{Match: host, In: topo.NodeNone, Out: f.IDSNode, Priority: 10})
	fib.Add(sw1, tf.Rule{Match: scrub, In: topo.NodeNone, Out: f.IDSNode, Priority: 10})
	fib.Add(sw1, tf.Rule{Match: peer, In: topo.NodeNone, Out: f.Peer, Priority: 10})
	fib.Add(sw2, tf.Rule{Match: host, In: topo.NodeNone, Out: f.Host, Priority: 10})
	fib.Add(sw2, tf.Rule{Match: scrub, In: topo.NodeNone, Out: f.ScrubNode, Priority: 10})
	fib.Add(sw2, tf.Rule{Match: peer, In: topo.NodeNone, Out: f.IDSNode, Priority: 10})
	// Dual-homed IDS egress: toward sw2 for host/scrubber, sw1 for peer.
	fib.Add(f.IDSNode, tf.Rule{Match: host, In: topo.NodeNone, Out: sw2, Priority: 10})
	fib.Add(f.IDSNode, tf.Rule{Match: scrub, In: topo.NodeNone, Out: sw2, Priority: 10})
	fib.Add(f.IDSNode, tf.Rule{Match: peer, In: topo.NodeNone, Out: sw1, Priority: 10})

	f.Topo = t
	f.FIB = fib
	return f
}

// NewIDSRegistry returns a registry with the malicious and attack classes.
func NewIDSRegistry() *pkt.Registry {
	reg := pkt.NewRegistry()
	reg.Register(mbox.ClassMalicious)
	reg.Register(mbox.ClassAttack)
	return reg
}

// Problem builds a problem over the fragment.
func (f *IDSFragment) Problem(invariant inv.Invariant, maxSends int) *inv.Problem {
	samples := []inv.Sample{
		{Sender: f.Peer, Hdr: hdrOf(f.AddrPeer, f.AddrHost, 1000, 80)},
	}
	return &inv.Problem{
		Topo:      f.Topo,
		TF:        tf.New(f.Topo, f.FIB, topo.NoFailures()),
		Boxes:     []mbox.Instance{{Node: f.IDSNode, Model: f.IDS}, {Node: f.ScrubNode, Model: f.Scrubber}},
		Registry:  f.Registry,
		Samples:   samples,
		MaxSends:  maxSends,
		Invariant: invariant,
	}
}
