// Package symmetry implements §4.2 of the paper: when a network's topology
// and policy are symmetric with respect to policy equivalence classes, two
// invariants that map to each other under a class-preserving renaming of
// nodes have the same verdict. VMN therefore partitions the invariant set
// into symmetry groups and verifies one representative per group.
package symmetry

import (
	"fmt"
	"sort"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/topo"
)

// Classifier resolves nodes and addresses to policy-class names.
type Classifier struct {
	// HostClass maps host/external nodes to their policy equivalence
	// class. Missing nodes are singletons; with HostClass nil every node
	// is, and a signature names exactly what its invariant asserts.
	HostClass map[topo.NodeID]string
	// Topo resolves addresses to nodes; may be nil if no invariant uses
	// address fields.
	Topo *topo.Topology
}

// NodeClass names the policy class of a node (slices.ClassOf). A signature
// spells the class of every node it depends on.
func (c Classifier) NodeClass(id topo.NodeID) string {
	return slices.ClassOf(c.HostClass, id)
}

func (c Classifier) addrClass(a pkt.Addr) string {
	if c.Topo != nil {
		if n, ok := c.Topo.HostByAddr(a); ok {
			return c.NodeClass(n.ID)
		}
	}
	return slices.Unowned + a.String()
}

// Signature renders an invariant's symmetry signature: two invariants with
// equal signatures are symmetric (given a symmetric network). An invariant
// type without a case here is signed by its type and content, so it shares
// a signature only with an equal invariant, whatever the classes.
func (c Classifier) Signature(i inv.Invariant) string {
	switch v := i.(type) {
	case inv.SimpleIsolation:
		return "simple|" + c.NodeClass(v.Dst) + "|" + c.addrClass(v.SrcAddr)
	case inv.Reachability:
		return "reach|" + c.NodeClass(v.Dst) + "|" + c.addrClass(v.SrcAddr)
	case inv.FlowIsolation:
		return "flow|" + c.NodeClass(v.Dst) + "|" + c.addrClass(v.SrcAddr)
	case inv.DataIsolation:
		return "data|" + c.NodeClass(v.Dst) + "|" + c.addrClass(v.Origin)
	case inv.Traversal:
		vias := make([]string, len(v.Vias))
		for j, m := range v.Vias {
			vias[j] = c.NodeClass(m)
		}
		sort.Strings(vias)
		return fmt.Sprintf("trav|%s|%s|%s|%v", c.NodeClass(v.Dst), v.SrcPrefix, c.addrClass(v.SrcAddr), vias)
	default:
		return fmt.Sprintf("opaque|%T|%#v", i, i)
	}
}

// Group is one symmetry class of invariants.
type Group struct {
	Signature      string
	Representative inv.Invariant
	Members        []inv.Invariant
}

// Groups partitions invariants into symmetry groups by their signatures
// (position-aligned with invs), preserving first-seen order of groups and
// members. The representative is always Members[0]; consumers skip it by
// position rather than by interface equality, since invariants may be
// uncomparable types (Traversal holds a slice).
func Groups(sigs []string, invs []inv.Invariant) []Group {
	index := map[string]int{}
	var out []Group
	for ii, i := range invs {
		sig := sigs[ii]
		gi, ok := index[sig]
		if !ok {
			gi = len(out)
			index[sig] = gi
			out = append(out, Group{Signature: sig, Representative: i})
		}
		out[gi].Members = append(out[gi].Members, i)
	}
	return out
}

// CheckRef names one (invariant group, scenario) check in a batch.
type CheckRef struct {
	Group    int
	Scenario int
}

// CanonClass is one canonical equivalence class of checks: every member's
// (slice, invariant) pair canonicalizes to Key, so the members are
// provably isomorphic — same verdict, corresponding witnesses. The first
// member is the class representative.
type CanonClass struct {
	Key     string
	Members []CheckRef
}

// CanonClasses partitions a groups × scenarios check grid into canonical
// equivalence classes, scanning row-major (scenarios inner) and keeping
// first-seen order of classes and members — the deterministic order
// class-level solving and report assembly rely on. keyFn returns the
// check's canonical class key, or nil when the check is not
// canonicalizable; nil-keyed checks form singleton classes and are always
// their own representative.
//
// Where §4.2 grouping (Groups) collapses invariants under an ASSUMED
// network symmetry, canonical classes collapse checks whose isomorphism
// has been proven by key equality; the two compose — Groups first, then
// CanonClasses over the group representatives.
func CanonClasses(groups, scenarios int, keyFn func(gi, si int) []byte) []CanonClass {
	index := map[string]int{}
	var out []CanonClass
	for gi := 0; gi < groups; gi++ {
		for si := 0; si < scenarios; si++ {
			ref := CheckRef{Group: gi, Scenario: si}
			key := keyFn(gi, si)
			if key == nil {
				out = append(out, CanonClass{Members: []CheckRef{ref}})
				continue
			}
			ks := string(key)
			ci, ok := index[ks]
			if !ok {
				ci = len(out)
				index[ks] = ci
				out = append(out, CanonClass{Key: ks})
			}
			out[ci].Members = append(out[ci].Members, ref)
		}
	}
	return out
}
