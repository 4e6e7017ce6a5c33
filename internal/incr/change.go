// Package incr is VMN's incremental verification subsystem. It layers a
// long-lived Session on top of internal/core: the caller submits
// change-sets (node/link up or down, forwarding-state updates, middlebox
// bind/unbind, policy-class relabels, invariant add/remove) and
// the session re-verifies only the invariants a change can affect,
// returning a full, fresh report set after every Apply.
//
// Three mechanisms make this cheap, all grounded in the paper's §4
// machinery:
//
//   - A dependency index derived from slice provenance: each symmetry
//     group's verdict depends only on the elements its computed slice
//     touches (slice hosts and boxes plus every fabric node on any
//     forwarding walk between them — slices.ReadSet.Nodes). A change dirties
//     exactly the groups whose footprint it intersects; symmetry groups
//     stay collapsed, so a dirtied representative re-runs once for its
//     whole group.
//
//   - A verdict cache keyed, byte for byte, by a check's canonical class
//     key or else its slice fingerprint (the invariant, scenario, slice
//     membership, middlebox configurations and the forwarding entries of
//     touched nodes). A dirtied group whose key is unchanged — or reverts
//     to a previously seen configuration — returns its cached report
//     without re-solving.
//
//   - Parallel re-verification: dirtied groups are re-verified across a
//     worker pool, composing with the explicit engine's intra-search
//     parallelism and the SAT engine's journey memoization.
package incr

import (
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Kind classifies a Change.
type Kind int8

// Change kinds.
const (
	// KindNodeDown takes Node out of service (a link or element failure
	// becoming real, not hypothetical). The repo models link state at node
	// granularity: failing a switch removes its links from service,
	// failing a middlebox triggers its fail-open/fail-closed behaviour.
	KindNodeDown Kind = iota
	// KindNodeUp returns Node to service.
	KindNodeUp
	// KindFIB swaps in FIBFor as the session's forwarding-state provider.
	// Changed table owners are found by diffing its tables against the
	// previous provider's.
	KindFIB
	// KindBoxRemove unbinds the middlebox model at Node.
	KindBoxRemove
	// KindBoxReconfig binds Model at the middlebox node Node, replacing
	// the model bound there if there is one.
	KindBoxReconfig
	// KindRelabel sets Node's policy equivalence class to Class (empty
	// Class makes the node a singleton again).
	KindRelabel
	// KindInvAdd adds Invariant to the verified set.
	KindInvAdd
	// KindInvRemove removes all invariants whose Name() equals Name.
	KindInvRemove
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNodeDown:
		return "node-down"
	case KindNodeUp:
		return "node-up"
	case KindFIB:
		return "fib"
	case KindBoxRemove:
		return "box-remove"
	case KindBoxReconfig:
		return "box-reconfig"
	case KindRelabel:
		return "relabel"
	case KindInvAdd:
		return "inv-add"
	default:
		return "inv-remove"
	}
}

// Change is one element of a change-set. Use the constructors below.
type Change struct {
	Kind      Kind
	Node      topo.NodeID
	FIBFor    func(topo.FailureScenario) tf.FIB
	Model     mbox.Model
	Class     string
	Invariant inv.Invariant
	Name      string
}

// NodeDown takes a node out of service.
func NodeDown(n topo.NodeID) Change { return Change{Kind: KindNodeDown, Node: n} }

// NodeUp returns a node to service.
func NodeUp(n topo.NodeID) Change { return Change{Kind: KindNodeUp, Node: n} }

// FIBUpdate swaps the session's forwarding-state provider; changed table
// owners are discovered by comparing the new provider's tables with the
// ones the session compiled last. A rule list that is the very slice
// compiled last counts as unchanged without a look inside, so a provider
// derived from the previous one should share the lists it did not touch —
// and no list handed to the session is ever mutated afterwards.
func FIBUpdate(fibFor func(topo.FailureScenario) tf.FIB) Change {
	return Change{Kind: KindFIB, FIBFor: fibFor}
}

// BoxRemove unbinds the middlebox model at n.
func BoxRemove(n topo.NodeID) Change { return Change{Kind: KindBoxRemove, Node: n} }

// BoxSwap binds model at the middlebox node n, whether or not a model is
// bound there: the one way to add or reconfigure a box. To edit a
// configuration, clone the model, edit the clone and swap it in.
func BoxSwap(n topo.NodeID, model mbox.Model) Change {
	return Change{Kind: KindBoxReconfig, Node: n, Model: model}
}

// Relabel sets n's policy equivalence class.
func Relabel(n topo.NodeID, class string) Change {
	return Change{Kind: KindRelabel, Node: n, Class: class}
}

// AddInvariant adds i to the verified set.
func AddInvariant(i inv.Invariant) Change { return Change{Kind: KindInvAdd, Invariant: i} }

// RemoveInvariant removes all invariants named name.
func RemoveInvariant(name string) Change { return Change{Kind: KindInvRemove, Name: name} }
