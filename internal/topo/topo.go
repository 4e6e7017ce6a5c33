// Package topo models network topologies for VMN: hosts, switches and
// middleboxes connected by links, plus failure scenarios. The static
// forwarding behaviour over a topology is compiled by internal/tf; the
// mutable (middlebox) behaviour lives in internal/mbox.
package topo

import (
	"fmt"
	"sort"

	"github.com/netverify/vmn/internal/pkt"
)

// NodeID identifies a node within a Topology. IDs are dense and start at 0.
type NodeID int32

// NodeNone is the invalid node.
const NodeNone NodeID = -1

// Kind classifies nodes.
type Kind int8

// Node kinds.
const (
	Host Kind = iota
	Switch
	Middlebox
	// External represents the outside world (e.g. "the Internet"), an
	// edge node that can originate and absorb any traffic.
	External
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	case Middlebox:
		return "middlebox"
	default:
		return "external"
	}
}

// Node is one network element.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
	// Addr is the address of a Host (or representative address of an
	// External node); unset for switches and middleboxes.
	Addr pkt.Addr
	// MBType names the middlebox model type for Middlebox nodes
	// (e.g. "firewall", "nat", "cache"); resolved by internal/mbox.
	MBType string
}

// IsEdge reports whether the node terminates packets (host/external) or
// processes them (middlebox) — i.e. is not a pure forwarding element.
func (n Node) IsEdge() bool { return n.Kind != Switch }

// Topology is a set of nodes and undirected links. The zero value is empty
// and usable.
type Topology struct {
	nodes  []Node
	byName map[string]NodeID
	byAddr map[pkt.Addr]NodeID
	adj    map[NodeID][]NodeID
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{
		byName: map[string]NodeID{},
		byAddr: map[pkt.Addr]NodeID{},
		adj:    map[NodeID][]NodeID{},
	}
}

func (t *Topology) add(n Node) NodeID {
	if _, ok := t.byName[n.Name]; ok {
		panic(fmt.Sprintf("topo: duplicate node name %q", n.Name))
	}
	n.ID = NodeID(len(t.nodes))
	t.nodes = append(t.nodes, n)
	t.byName[n.Name] = n.ID
	if n.Addr != pkt.AddrNone {
		t.byAddr[n.Addr] = n.ID
	}
	return n.ID
}

// AddHost adds a host with the given unique name and address.
func (t *Topology) AddHost(name string, addr pkt.Addr) NodeID {
	return t.add(Node{Name: name, Kind: Host, Addr: addr})
}

// AddSwitch adds a switch.
func (t *Topology) AddSwitch(name string) NodeID {
	return t.add(Node{Name: name, Kind: Switch})
}

// AddMiddlebox adds a middlebox of the given model type.
func (t *Topology) AddMiddlebox(name, mbType string) NodeID {
	return t.add(Node{Name: name, Kind: Middlebox, MBType: mbType})
}

// AddExternal adds an external world node (e.g. the Internet) with a
// representative address.
func (t *Topology) AddExternal(name string, addr pkt.Addr) NodeID {
	return t.add(Node{Name: name, Kind: External, Addr: addr})
}

// AddLink connects two existing nodes bidirectionally. Self-links and
// duplicate links are rejected.
func (t *Topology) AddLink(a, b NodeID) {
	if a == b {
		panic("topo: self-link")
	}
	t.mustNode(a)
	t.mustNode(b)
	for _, n := range t.adj[a] {
		if n == b {
			panic(fmt.Sprintf("topo: duplicate link %s-%s", t.nodes[a].Name, t.nodes[b].Name))
		}
	}
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

func (t *Topology) mustNode(id NodeID) Node {
	if id < 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("topo: unknown node id %d", id))
	}
	return t.nodes[id]
}

// Node returns the node with the given id.
func (t *Topology) Node(id NodeID) Node { return t.mustNode(id) }

// NumNodes returns the number of nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// ByName looks a node up by name.
func (t *Topology) ByName(name string) (Node, bool) {
	id, ok := t.byName[name]
	if !ok {
		return Node{}, false
	}
	return t.nodes[id], true
}

// MustByName looks a node up by name, panicking if absent.
func (t *Topology) MustByName(name string) Node {
	n, ok := t.ByName(name)
	if !ok {
		panic(fmt.Sprintf("topo: no node named %q", name))
	}
	return n
}

// HostByAddr returns the host/external node owning addr.
func (t *Topology) HostByAddr(a pkt.Addr) (Node, bool) {
	id, ok := t.byAddr[a]
	if !ok {
		return Node{}, false
	}
	return t.nodes[id], true
}

// Neighbors returns the adjacent nodes of id (shared slice; do not mutate).
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.adj[id] }

// Nodes returns all nodes (copy).
func (t *Topology) Nodes() []Node { return append([]Node(nil), t.nodes...) }

// NodesOfKind returns the IDs of all nodes of kind k, in ID order.
func (t *Topology) NodesOfKind(k Kind) []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Kind == k {
			out = append(out, n.ID)
		}
	}
	return out
}

// EdgeNodes returns all non-switch nodes (hosts, externals, middleboxes).
func (t *Topology) EdgeNodes() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.IsEdge() {
			out = append(out, n.ID)
		}
	}
	return out
}

// FailureScenario is a set of failed nodes. The empty scenario is the
// fault-free network.
type FailureScenario struct {
	failed map[NodeID]bool
}

// NoFailures is the empty scenario.
func NoFailures() FailureScenario { return FailureScenario{} }

// Failures builds a scenario in which exactly the given nodes are down.
func Failures(nodes ...NodeID) FailureScenario {
	f := FailureScenario{failed: map[NodeID]bool{}}
	for _, n := range nodes {
		f.failed[n] = true
	}
	return f
}

// Failed reports whether node n is down in this scenario.
func (f FailureScenario) Failed(n NodeID) bool { return f.failed[n] }

// Count returns the number of failed nodes.
func (f FailureScenario) Count() int { return len(f.failed) }

// Nodes returns the failed nodes in ID order.
func (f FailureScenario) Nodes() []NodeID {
	out := make([]NodeID, 0, len(f.failed))
	for n := range f.failed {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Key returns a canonical string key for map indexing.
func (f FailureScenario) Key() string {
	s := ""
	for _, n := range f.Nodes() {
		s += fmt.Sprintf("%d,", n)
	}
	return s
}

// SingleFailures enumerates the fault-free scenario plus one scenario per
// given node failing alone. This is the paper's "verify under all single
// failures" mode.
func SingleFailures(candidates []NodeID) []FailureScenario {
	out := []FailureScenario{NoFailures()}
	for _, n := range candidates {
		out = append(out, Failures(n))
	}
	return out
}
