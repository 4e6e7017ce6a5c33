package bench

import (
	"fmt"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// ISPConfig sizes the §5.3.3 SWITCHlan-style ISP.
type ISPConfig struct {
	Peerings int // peering points, each with an IDS + firewall pipeline
	Subnets  int // customer subnets, kinds round-robin as in §5.3.1
	// ScrubberBypassesFW injects the §5.3.3 misconfiguration: traffic the
	// scrubber releases is delivered directly instead of re-entering
	// through a stateful firewall.
	ScrubberBypassesFW bool
}

// ISP is the Fig 9a network: at each peering point traffic crosses an IDS
// then a stateful firewall; the IDS reroutes suspected-attack destinations
// to a central scrubbing box.
type ISP struct {
	Net *core.Network

	Peers     []topo.NodeID
	IDSNodes  []topo.NodeID
	FWNodes   []topo.NodeID
	ScrubNode topo.NodeID
	Hosts     []topo.NodeID // one representative host per subnet
}

// PeerAddr returns peering point i's representative outside address.
func PeerAddr(i int) pkt.Addr { return pkt.Addr(8)<<24 | pkt.Addr(i)<<16 | 1 }

// NewISP builds the network from its description, netdesc.ISPBackbone:
// the one definition of the topology, its boxes and its routing.
func NewISP(cfg ISPConfig) *ISP {
	d := netdesc.ISPBackbone(netdesc.ISPBackboneConfig{Peerings: cfg.Peerings, Subnets: cfg.Subnets})
	if cfg.ScrubberBypassesFW {
		// The k-th rule for scrubber-released traffic is subnet k's:
		// deliver it to the subnet's switch, past every firewall.
		k := 0
		for i, r := range d.FIB["backbone"] {
			if r.In == "sb" {
				d.FIB["backbone"][i].Out = fmt.Sprintf("swC%d", k)
				k++
			}
		}
	}
	net, _, err := netdesc.Build(d, "")
	if err != nil {
		panic(err)
	}
	isp := &ISP{Net: net, ScrubNode: net.Topo.MustByName("sb").ID}
	node := func(format string, i int) topo.NodeID { return net.Topo.MustByName(fmt.Sprintf(format, i)).ID }
	for i := range net.Topo.NodesOfKind(topo.External) {
		isp.Peers = append(isp.Peers, node("peer%d", i))
		isp.IDSNodes = append(isp.IDSNodes, node("ids%d", i))
		isp.FWNodes = append(isp.FWNodes, node("fw%d", i))
	}
	for s := range net.Topo.NodesOfKind(topo.Host) {
		isp.Hosts = append(isp.Hosts, node("h%d", s))
	}
	return isp
}

// Invariant returns the representative invariant for subnet s against
// peering point p's outside address.
func (isp *ISP) Invariant(s, p int) inv.Invariant {
	h := isp.Hosts[s]
	src := PeerAddr(p)
	switch KindOf(s) {
	case PublicSubnet:
		return inv.Reachability{Dst: h, SrcAddr: src, Label: fmt.Sprintf("public-%d@peer%d", s, p)}
	case PrivateSubnet:
		return inv.FlowIsolation{Dst: h, SrcAddr: src, Label: fmt.Sprintf("private-%d@peer%d", s, p)}
	default:
		return inv.SimpleIsolation{Dst: h, SrcAddr: src, Label: fmt.Sprintf("quarantined-%d@peer%d", s, p)}
	}
}
