// Package slices implements §4 of the paper: network slices. A slice is a
// subnetwork closed under forwarding and state; any invariant referencing
// only nodes in the slice holds on the whole network iff it holds on the
// slice. For networks whose middleboxes are all flow-parallel, closure
// under forwarding suffices; when origin-agnostic middleboxes (caches,
// IDSes) are present the slice must additionally contain one
// representative host from every policy equivalence class (§4.1). Networks
// containing middleboxes of General discipline do not shrink: the whole
// network is returned.
package slices

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Input describes the network to slice.
type Input struct {
	Topo *topo.Topology
	TF   *tf.Engine
	// Boxes are all middlebox instances in the network.
	Boxes []mbox.Instance
	// PolicyClass assigns each host/external node its policy equivalence
	// class (§4.1: same class ⇔ same middlebox types and policy treatment).
	// Nodes missing from the map form singleton classes.
	PolicyClass map[topo.NodeID]string
	// Keep are the nodes the invariant references; they are always in the
	// slice.
	Keep []topo.NodeID
}

// Result is a computed slice.
type Result struct {
	// Hosts are the slice's host/external nodes.
	Hosts []topo.NodeID
	// Boxes are the middlebox instances the slice retains.
	Boxes []mbox.Instance
	// Whole reports that no proper slice exists (a General-discipline
	// middlebox forced the whole network).
	Whole bool
}

// Size returns the number of edge nodes in the slice — the quantity the
// paper's scaling argument is about.
func (r Result) Size() int { return len(r.Hosts) + len(r.Boxes) }

// AuxAddrs is implemented by middlebox models that forward traffic to
// auxiliary service addresses (e.g. an IDS rerouting to its scrubber);
// closure under forwarding must pull the owners of these addresses into
// the slice.
type AuxAddrs interface {
	AuxAddrs() []pkt.Addr
}

// ServiceAddrs is implemented by middlebox models that emit packets routed
// toward addresses that are not slice host addresses and not auxiliary
// service targets pulled in by AuxAddrs — a NAT's public address, a load
// balancer's virtual IP and backend pool. Read-set enumeration
// (ComputeReadSet) walks the fabric toward these addresses too, so that
// forwarding-state changes affecting rewritten traffic dirty the right
// invariants.
type ServiceAddrs interface {
	ServiceAddrs() []pkt.Addr
}

// ReadSet is the dependency footprint of one check: the node footprint,
// plus — for proper slices — the forwarding-state reads at address
// granularity and the slice's address universe.
//
// Nodes is every network element the verification of the slice can consult,
// sorted and duplicate-free: the slice's host and middlebox nodes, plus
// every fabric node on any forwarding walk from a slice edge member toward
// any slice-relevant destination address (slice host addresses, middlebox
// auxiliary and service addresses); every node, for a whole-network slice.
// A configuration change at an element outside it cannot change the slice,
// the problem the engines solve, or the verdict — walks are deterministic
// and only read the tables of nodes they visit, slice closure only walks
// paths between slice members, and middlebox semantics only involve boxes
// inside the slice.
//
// FIB maps each table-read node to the destination atoms looked up there
// (tf.Engine.ConsultedTables per walk; every lookup of one walk uses the
// walk's destination address). A forwarding update at node n can alter the
// check's verdict only if n carries a read atom whose matching rule
// subsequence the update changes — the walk decision at (n, dst) is a
// function of exactly the rules matching dst, in table order, so lookups
// that fell through to a covering default are dirtied by any new
// more-specific rule that would have won, and by nothing else. Nodes in
// Nodes but absent from FIB were consulted for liveness or membership
// only; their forwarding entries are never read.
//
// Universe is the full address alphabet of the slice (host, auxiliary and
// service addresses) — every address a packet routed by either engine can
// carry, the set middlebox rule-read projections (mbox.ReadKey) are
// taken against.
//
// Coarse marks whole-network slices: FIB and Universe are unset and every
// change at a footprint node must be treated as relevant.
type ReadSet struct {
	Nodes    []topo.NodeID
	FIB      map[topo.NodeID]topo.AtomSet
	Universe topo.AtomSet
	Coarse   bool
}

// ComputeReadSet enumerates the read-set of slice r (see ReadSet).
func ComputeReadSet(t *topo.Topology, eng *tf.Engine, r Result) ReadSet {
	if r.Whole {
		all := make([]topo.NodeID, t.NumNodes())
		for i := range all {
			all[i] = topo.NodeID(i)
		}
		return ReadSet{Nodes: all, Coarse: true}
	}
	seen := map[topo.NodeID]bool{}
	var members []topo.NodeID
	add := func(id topo.NodeID) {
		if !seen[id] {
			seen[id] = true
			members = append(members, id)
		}
	}
	for _, h := range r.Hosts {
		add(h)
	}
	addrSeen := map[pkt.Addr]bool{}
	var addrs []pkt.Addr
	addAddr := func(a pkt.Addr) {
		if a != pkt.AddrNone && !addrSeen[a] {
			addrSeen[a] = true
			addrs = append(addrs, a)
		}
	}
	for _, h := range r.Hosts {
		addAddr(t.Node(h).Addr)
	}
	for _, b := range r.Boxes {
		add(b.Node)
		if aux, ok := b.Model.(AuxAddrs); ok {
			for _, a := range aux.AuxAddrs() {
				addAddr(a)
			}
		}
		if svc, ok := b.Model.(ServiceAddrs); ok {
			for _, a := range svc.ServiceAddrs() {
				addAddr(a)
			}
		}
	}
	touched := map[topo.NodeID]bool{}
	reads := map[topo.NodeID][]pkt.Addr{}
	for _, from := range members {
		touched[from] = true
		for _, a := range addrs {
			for _, n := range eng.Consulted(from, a) {
				touched[n] = true
			}
			for _, n := range eng.ConsultedTables(from, a) {
				reads[n] = append(reads[n], a)
			}
		}
	}
	out := make([]topo.NodeID, 0, len(touched))
	for id := range touched {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	fib := make(map[topo.NodeID]topo.AtomSet, len(reads))
	for n, as := range reads {
		fib[n] = topo.NewAtomSet(as)
	}
	return ReadSet{Nodes: out, FIB: fib, Universe: topo.NewAtomSet(addrs)}
}

// Compute builds a slice per §4.1.
func Compute(in Input) (Result, error) {
	originAgnostic := false
	for _, b := range in.Boxes {
		switch b.Model.Discipline() {
		case mbox.General:
			// No slice smaller than the network is sound.
			return Whole(in.Topo, in.Boxes), nil
		case mbox.OriginAgnostic:
			originAgnostic = true
		}
	}

	// sources are the slice's hosts and middleboxes in the order added;
	// walked[i] counts the hosts sources[i] has been walked to.
	inSlice := map[topo.NodeID]bool{}
	var hosts, sources []topo.NodeID
	var walked []int
	addNode := func(id topo.NodeID) {
		if inSlice[id] {
			return
		}
		inSlice[id] = true
		switch in.Topo.Node(id).Kind {
		case topo.Host, topo.External:
			hosts = append(hosts, id)
			fallthrough
		case topo.Middlebox:
			sources, walked = append(sources, id), append(walked, 0)
		}
	}
	for _, id := range in.Keep {
		addNode(id)
	}

	// Fixpoint: close under forwarding (paths between slice hosts pull in
	// on-path middleboxes and auxiliary service nodes), then — if any
	// origin-agnostic box is present — ensure one representative per
	// policy class, which may add hosts and restart closure.
	for iter := 0; ; iter++ {
		if iter > in.Topo.NumNodes()+8 {
			return Result{}, fmt.Errorf("slices: closure did not converge")
		}
		changed := false

		// Closure under forwarding, from the hosts and middleboxes in the
		// slice when the round starts (e.g. the invariant names a
		// middlebox: traffic still flows host-to-host). Paths are fixed, so
		// each (source, host) pair is walked once over all rounds.
		for i, a := range sources {
			for _, b := range hosts[walked[i]:] {
				if a == b {
					continue
				}
				path, err := in.TF.Path(a, in.Topo.Node(b).Addr)
				if err != nil {
					continue // unreachable pairs constrain nothing
				}
				for _, hop := range path {
					if in.Topo.Node(hop).Kind == topo.Middlebox && !inSlice[hop] {
						addNode(hop)
						changed = true
					}
				}
			}
			walked[i] = len(hosts)
		}
		// Auxiliary addresses of slice middleboxes.
		for id := range inSlice {
			b, ok := boxAt(in, id)
			if !ok {
				continue
			}
			if aux, ok := b.Model.(AuxAddrs); ok {
				for _, addr := range aux.AuxAddrs() {
					if n, found := in.Topo.HostByAddr(addr); found && !inSlice[n.ID] {
						addNode(n.ID)
						changed = true
					}
					// The aux target may be a middlebox (scrubber):
					// locate it by walking the fabric from a slice host.
					if len(hosts) > 0 {
						if to, ok2, err := in.TF.Next(hosts[0], addr); err == nil && ok2 && !inSlice[to] {
							if in.Topo.Node(to).Kind == topo.Middlebox {
								addNode(to)
								changed = true
							}
						}
					}
				}
			}
		}

		// Policy-class representatives for origin-agnostic state (§4.1).
		if originAgnostic {
			have := map[string]bool{}
			for _, h := range hosts {
				have[ClassOf(in.PolicyClass, h)] = true
			}
			for _, n := range in.Topo.Nodes() {
				if n.Kind != topo.Host && n.Kind != topo.External {
					continue
				}
				c := ClassOf(in.PolicyClass, n.ID)
				if !have[c] {
					addNode(n.ID)
					have[c] = true
					changed = true
				}
			}
		}

		if !changed {
			break
		}
	}

	var boxes []mbox.Instance
	for id := range inSlice {
		if b, ok := boxAt(in, id); ok {
			boxes = append(boxes, b)
		}
	}
	sort.Slice(boxes, func(i, j int) bool { return boxes[i].Node < boxes[j].Node })
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	return Result{Hosts: hosts, Boxes: boxes}, nil
}

// boxAt finds the instance bound to node id, which only a middlebox node
// carries. A scan, not a map built per call: what a call allocates must
// follow its slice, not the network's box count.
func boxAt(in Input, id topo.NodeID) (mbox.Instance, bool) {
	if in.Topo.Node(id).Kind == topo.Middlebox {
		for _, b := range in.Boxes {
			if b.Node == id {
				return b, true
			}
		}
	}
	return mbox.Instance{}, false
}

// unlabeled prefixes the class name of an unlabeled node, Unowned the one
// a symmetry signature gives an address no host owns. CheckClass refuses
// both in a declared class, so no declared class can be taken for either.
const unlabeled, Unowned = "node-", "addr-"

// ClassOf is id's policy class under classes; an unlabeled node is a
// singleton class of its own.
func ClassOf(classes map[topo.NodeID]string, id topo.NodeID) string {
	if c, ok := classes[id]; ok {
		return c
	}
	return unlabeled + strconv.Itoa(int(id))
}

// CheckClass refuses a policy class that a description or a relabel may
// not declare: one that could name an unlabeled node's or an unowned
// address's class, or that holds '|', which separates a signature's fields.
func CheckClass(c string) error {
	if strings.HasPrefix(c, unlabeled) || strings.HasPrefix(c, Unowned) || strings.Contains(c, "|") {
		return fmt.Errorf("policy class %q is reserved: a class may neither begin with %q or %q nor hold '|'", c, unlabeled, Unowned)
	}
	return nil
}

// Whole is the no-slicing result: every host and external node of t and
// every box.
func Whole(t *topo.Topology, boxes []mbox.Instance) Result {
	var hosts []topo.NodeID
	for _, n := range t.Nodes() {
		if n.Kind == topo.Host || n.Kind == topo.External {
			hosts = append(hosts, n.ID)
		}
	}
	return Result{Hosts: hosts, Boxes: append([]mbox.Instance(nil), boxes...), Whole: true}
}
