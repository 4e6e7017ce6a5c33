package netdesc

import (
	"fmt"
	"sort"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// FromNetwork exports a built network (plus its invariants) as a
// description, the inverse of Build: nodes in ID order, links sorted by
// endpoint IDs, the fault-free FIB, and every box configuration read
// back from its model. Networks carrying MDL-interpreted boxes cannot be
// exported — the interpreter does not retain its source bundle path —
// and produce an error.
//
// Export is the bridge from the programmatic builders (internal/bench)
// to the file frontend; the differential tests use it to prove a
// file-described network verifies bit-identically to its in-memory
// original.
func FromNetwork(name string, net *core.Network, invs []inv.Invariant) (*Desc, error) {
	d := &Desc{Format: Format, Name: name, FIB: map[string][]Rule{}}
	t := net.Topo

	if net.Registry != nil {
		d.Classes = net.Registry.Names()
	}

	models := map[topo.NodeID]mbox.Model{}
	for _, b := range net.Boxes {
		models[b.Node] = b.Model
	}

	for _, n := range t.Nodes() {
		nd := Node{Name: n.Name, Kind: n.Kind.String()}
		switch n.Kind {
		case topo.Host, topo.External:
			nd.Addr = n.Addr.String()
			nd.Class = net.PolicyClass[n.ID]
		case topo.Middlebox:
			model, ok := models[n.ID]
			if !ok {
				return nil, fmt.Errorf("netdesc: middlebox %q has no model instance", n.Name)
			}
			box, err := ExportBox(n.Name, model, net.Registry)
			if err != nil {
				return nil, err
			}
			nd.Box = box
		}
		d.Nodes = append(d.Nodes, nd)
	}

	var links [][2]topo.NodeID
	for _, n := range t.Nodes() {
		for _, nb := range t.Neighbors(n.ID) {
			if n.ID < nb {
				links = append(links, [2]topo.NodeID{n.ID, nb})
			}
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, l := range links {
		d.Links = append(d.Links, [2]string{t.Node(l[0]).Name, t.Node(l[1]).Name})
	}

	for id, rules := range net.FIBFor(topo.NoFailures()) {
		var out []Rule
		for _, r := range rules {
			wr := Rule{Match: FormatPrefix(r.Match), Out: t.Node(r.Out).Name, Priority: r.Priority}
			if r.In != topo.NodeNone {
				wr.In = t.Node(r.In).Name
			}
			out = append(out, wr)
		}
		d.FIB[t.Node(id).Name] = out
	}

	for _, iv := range invs {
		w, err := ExportInvariant(t, iv)
		if err != nil {
			return nil, err
		}
		d.Invariants = append(d.Invariants, w)
	}
	return d, nil
}

func exportACL(acl []mbox.ACLEntry) []ACLRule {
	var out []ACLRule
	for _, e := range acl {
		out = append(out, ACLRule{Action: e.Action.String(), Src: FormatPrefix(e.Src), Dst: FormatPrefix(e.Dst)})
	}
	return out
}

// ExportBox reads a model's configuration back into its description; the
// inverse of BuildBox. Models outside the format (MDL-interpreted, custom)
// are an error.
func ExportBox(name string, model mbox.Model, reg *pkt.Registry) (*Box, error) {
	switch m := model.(type) {
	case *mbox.LearningFirewall:
		return &Box{Type: "firewall", ACL: exportACL(m.ACL), DefaultAllow: m.DefaultAllow}, nil
	case *mbox.ContentCache:
		return &Box{Type: "cache", ACL: exportACL(m.ACL), DefaultServe: m.DefaultServe}, nil
	case *mbox.NAT:
		return &Box{Type: "nat", Addr: m.NATAddr.String()}, nil
	case *mbox.IDPS:
		b := &Box{Type: "idps"}
		if m.Scrubber != pkt.AddrNone {
			b.Scrubber = m.Scrubber.String()
		}
		for _, w := range m.Watched {
			b.Watched = append(b.Watched, FormatPrefix(w))
		}
		return b, nil
	case *mbox.Scrubber:
		return &Box{Type: "scrubber"}, nil
	case *mbox.LoadBalancer:
		b := &Box{Type: "loadbalancer", VIP: m.VIP.String()}
		for _, be := range m.Backends {
			b.Backends = append(b.Backends, be.String())
		}
		return b, nil
	case *mbox.AppFirewall:
		b := &Box{Type: "appfirewall"}
		if reg != nil {
			for _, cn := range reg.Names() {
				if c, ok := reg.Lookup(cn); ok && m.Blocked.Has(c) {
					b.Blocked = append(b.Blocked, cn)
				}
			}
		}
		return b, nil
	case *mbox.WANOptimizer:
		return &Box{Type: "wanopt"}, nil
	case *mbox.Passthrough:
		return &Box{Type: "passthrough", TypeName: m.TypeName}, nil
	default:
		return nil, fmt.Errorf("netdesc: middlebox %q: model %T is not exportable", name, model)
	}
}

// ExportInvariant names an invariant's slots against t; the inverse of
// BuildInvariant. Custom invariant types are an error.
func ExportInvariant(t *topo.Topology, iv inv.Invariant) (Invariant, error) {
	switch i := iv.(type) {
	case inv.SimpleIsolation:
		return Invariant{Type: "simple_isolation", Dst: t.Node(i.Dst).Name,
			SrcAddr: i.SrcAddr.String(), Label: i.Label}, nil
	case inv.FlowIsolation:
		return Invariant{Type: "flow_isolation", Dst: t.Node(i.Dst).Name,
			SrcAddr: i.SrcAddr.String(), Label: i.Label}, nil
	case inv.Reachability:
		return Invariant{Type: "reachability", Dst: t.Node(i.Dst).Name,
			SrcAddr: i.SrcAddr.String(), Label: i.Label}, nil
	case inv.DataIsolation:
		return Invariant{Type: "data_isolation", Dst: t.Node(i.Dst).Name,
			Origin: i.Origin.String(), Label: i.Label}, nil
	case inv.Traversal:
		w := Invariant{Type: "traversal", Dst: t.Node(i.Dst).Name,
			SrcPrefix: FormatPrefix(i.SrcPrefix), Label: i.Label}
		if i.SrcAddr != pkt.AddrNone {
			w.SrcAddr = i.SrcAddr.String()
		}
		for _, v := range i.Vias {
			w.Vias = append(w.Vias, t.Node(v).Name)
		}
		return w, nil
	default:
		return Invariant{}, fmt.Errorf("netdesc: invariant %T is not exportable", iv)
	}
}
