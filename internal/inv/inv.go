// Package inv defines VMN's reachability invariants (§3.3) and the bounded
// verification problems the engines solve. Every invariant compiles to a
// past-time LTL formula ("bad") whose truth at any trace step is a
// violation; the invariant itself is □¬bad. Both engines answer the same
// question — does any admissible schedule make bad true? — one by explicit
// product exploration (internal/explore), one by SAT-based bounded model
// checking (internal/encode).
package inv

import (
	"fmt"

	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Sample is one representative packet a host may inject: the finite
// alphabet over which the scheduling oracle ranges. Samples are well
// formed (the sender owns the source address), per §3.5's oracle axioms.
type Sample struct {
	Sender topo.NodeID
	Hdr    pkt.Header
}

// MaxHops bounds a packet's middlebox-to-middlebox forwarding chain; a
// longer chain is a middlebox forwarding loop and an error. Both engines
// read it, so their verdicts on a problem compare like for like.
const MaxHops = 12

// Problem is a bounded verification instance over a (possibly sliced)
// network. MaxSends bounds the number of host-send events in a schedule;
// the §4 slicing argument keeps the needed bound small and independent of
// network size for the supported invariant classes (violation witnesses
// need at most one packet per causal stage: initiate, establish, fill,
// probe).
type Problem struct {
	Topo      *topo.Topology
	TF        *tf.Engine
	Boxes     []mbox.Instance
	Registry  *pkt.Registry
	Samples   []Sample
	MaxSends  int
	Scenario  topo.FailureScenario
	Invariant Invariant
}

// RelevantClasses unions the abstract classes consulted by the problem's
// middleboxes — the classification oracle only varies these bits.
func (p *Problem) RelevantClasses() pkt.ClassSet {
	var s pkt.ClassSet
	for _, b := range p.Boxes {
		s |= b.Model.RelevantClasses(p.Registry)
	}
	return s
}

// ClassAssignments enumerates the consistent oracle assignments over the
// relevant classes (always at least the empty assignment).
func (p *Problem) ClassAssignments() []pkt.ClassSet {
	if p.Registry == nil {
		return []pkt.ClassSet{0}
	}
	out := p.Registry.EnumerateConsistent(p.RelevantClasses())
	if len(out) == 0 {
		return []pkt.ClassSet{0}
	}
	return out
}

// Outcome is a verification verdict.
type Outcome int8

// Outcomes.
const (
	// Holds: no admissible schedule within the bound violates the invariant.
	Holds Outcome = iota
	// Violated: a concrete violating schedule exists (see Result.Trace).
	Violated
	// Unknown: the engine exhausted its budget without a verdict.
	Unknown
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Holds:
		return "holds"
	case Violated:
		return "violated"
	default:
		return "unknown"
	}
}

// Result is an engine's answer.
type Result struct {
	Outcome Outcome
	// Trace is a violating schedule when Outcome == Violated.
	Trace []logic.Event
	// StatesExplored (explicit engine) or Conflicts (BMC) indicate work.
	StatesExplored  int
	SolverConflicts int64
}

// Invariant is a reachability-class invariant (§3.3).
type Invariant interface {
	// Name identifies the invariant in reports.
	Name() string
	// Bad compiles the violation condition against the problem's finite
	// alphabet.
	Bad(p *Problem) logic.Formula
	// Nodes lists the nodes the invariant references; a slice must contain
	// them (§4).
	Nodes() []topo.NodeID
	// Expectation: true if the network is expected to satisfy □¬bad
	// (isolation-style), false if bad is *desired* reachable
	// (reachability-style, e.g. Priv-Pub in §5.3.2). Used only for
	// reporting; engines always search for bad.
	Expectation() bool
	// RefAddrs lists the host addresses the invariant references; their
	// owners must be in the slice alongside Nodes().
	RefAddrs() []pkt.Addr
}

// SlotWriter is what an invariant's structural slots are walked through:
// the key writers (mbox.Key for the exact key, slices.Canonizer for the
// canonical one), which serialize each name and return it unchanged, and
// internal/core's translator, which returns the name a renaming maps it to.
type SlotWriter interface {
	Byte(x byte)
	Uint(x uint64)
	Node(n topo.NodeID) topo.NodeID
	Addr(a pkt.Addr) pkt.Addr
	Prefix(p pkt.Prefix) pkt.Prefix
}

// Slotted is implemented by invariants that can be keyed and carried
// between namespaces: Slots walks the type tag and every node, address and
// prefix the invariant names through w, in a fixed order, and returns the
// invariant rebuilt from what w answered (labels are reporting-only and
// kept). An invariant type without it is never verdict-cached or class-
// shared: its checks always solve in their own namespace.
type Slotted interface {
	Slots(w SlotWriter) Invariant
}

// matchSrc builds the predicate "header source equals a".
func matchSrc(a pkt.Addr) func(logic.Event) bool {
	return func(e logic.Event) bool { return e.Hdr.Src == a }
}

// SimpleIsolation asserts node Dst never receives a packet whose source
// address is SrcAddr: ∀n,p: □¬(rcv(d,n,p) ∧ src(p)=s).
type SimpleIsolation struct {
	Dst     topo.NodeID
	SrcAddr pkt.Addr
	Label   string
}

// Name implements Invariant.
func (i SimpleIsolation) Name() string {
	if i.Label != "" {
		return i.Label
	}
	return fmt.Sprintf("simple-isolation(dst=%d,src=%s)", i.Dst, i.SrcAddr)
}

// Bad implements Invariant.
func (i SimpleIsolation) Bad(*Problem) logic.Formula {
	return logic.RcvAt(i.Dst, fmt.Sprintf("src=%s", i.SrcAddr), matchSrc(i.SrcAddr))
}

// Nodes implements Invariant.
func (i SimpleIsolation) Nodes() []topo.NodeID { return []topo.NodeID{i.Dst} }

// Expectation implements Invariant.
func (i SimpleIsolation) Expectation() bool { return true }

// RefAddrs implements Invariant.
func (i SimpleIsolation) RefAddrs() []pkt.Addr { return []pkt.Addr{i.SrcAddr} }

// Slots implements Slotted.
func (i SimpleIsolation) Slots(w SlotWriter) Invariant {
	w.Byte('i')
	i.Dst, i.SrcAddr = w.Node(i.Dst), w.Addr(i.SrcAddr)
	return i
}

// Reachability is the positive counterpart of SimpleIsolation: it *wants*
// Dst to receive a packet from SrcAddr (e.g. §5.3.2's Priv-Pub check).
// Engines still search for the receive event; Violated means "reachable".
type Reachability struct {
	Dst     topo.NodeID
	SrcAddr pkt.Addr
	Label   string
}

// Name implements Invariant.
func (i Reachability) Name() string {
	if i.Label != "" {
		return i.Label
	}
	return fmt.Sprintf("reachable(dst=%d,src=%s)", i.Dst, i.SrcAddr)
}

// Bad implements Invariant (the "bad" event is the desired one here).
func (i Reachability) Bad(*Problem) logic.Formula {
	return logic.RcvAt(i.Dst, fmt.Sprintf("src=%s", i.SrcAddr), matchSrc(i.SrcAddr))
}

// Nodes implements Invariant.
func (i Reachability) Nodes() []topo.NodeID { return []topo.NodeID{i.Dst} }

// Expectation implements Invariant: reachability is satisfied when the
// event CAN happen.
func (i Reachability) Expectation() bool { return false }

// RefAddrs implements Invariant.
func (i Reachability) RefAddrs() []pkt.Addr { return []pkt.Addr{i.SrcAddr} }

// Slots implements Slotted.
func (i Reachability) Slots(w SlotWriter) Invariant {
	w.Byte('r')
	i.Dst, i.SrcAddr = w.Node(i.Dst), w.Addr(i.SrcAddr)
	return i
}

// DataIsolation asserts Dst never receives data originating at Origin,
// whether directly or via a cache: □¬(rcv(d,n,p) ∧ origin(p)=o). (§3.3,
// §5.2.)
type DataIsolation struct {
	Dst    topo.NodeID
	Origin pkt.Addr
	Label  string
}

// Name implements Invariant.
func (i DataIsolation) Name() string {
	if i.Label != "" {
		return i.Label
	}
	return fmt.Sprintf("data-isolation(dst=%d,origin=%s)", i.Dst, i.Origin)
}

// Bad implements Invariant.
func (i DataIsolation) Bad(*Problem) logic.Formula {
	return logic.RcvAt(i.Dst, fmt.Sprintf("origin=%s", i.Origin), func(e logic.Event) bool {
		return e.Hdr.Origin == i.Origin
	})
}

// Nodes implements Invariant.
func (i DataIsolation) Nodes() []topo.NodeID { return []topo.NodeID{i.Dst} }

// Expectation implements Invariant.
func (i DataIsolation) Expectation() bool { return true }

// RefAddrs implements Invariant.
func (i DataIsolation) RefAddrs() []pkt.Addr { return []pkt.Addr{i.Origin} }

// Slots implements Slotted.
func (i DataIsolation) Slots(w SlotWriter) Invariant {
	w.Byte('d')
	i.Dst, i.Origin = w.Node(i.Dst), w.Addr(i.Origin)
	return i
}

// FlowIsolation asserts Dst receives packets from SrcAddr only on flows
// Dst itself initiated (§3.3's flow isolation; the "private hosts may
// initiate but never accept" policy of §5.3.1):
//
//	□¬(rcv(d,n,p) ∧ src(p)=s ∧ ¬♦(snd(d,n',p') ∧ flow(p')=flow(p)))
//
// The flow comparison is grounded over the problem's finite alphabet.
type FlowIsolation struct {
	Dst     topo.NodeID
	SrcAddr pkt.Addr
	Label   string
}

// Name implements Invariant.
func (i FlowIsolation) Name() string {
	if i.Label != "" {
		return i.Label
	}
	return fmt.Sprintf("flow-isolation(dst=%d,src=%s)", i.Dst, i.SrcAddr)
}

// Bad implements Invariant.
func (i FlowIsolation) Bad(p *Problem) logic.Formula {
	// One disjunct per canonical flow of an alphabet packet with source
	// SrcAddr, in sample order, so the formula (and the encoding grounded
	// from it) does not depend on map iteration order.
	flows := map[pkt.Flow]bool{}
	var disjuncts []logic.Formula
	for _, s := range p.Samples {
		if s.Hdr.Src != i.SrcAddr {
			continue
		}
		fl := pkt.FlowOf(s.Hdr).Canonical()
		if flows[fl] {
			continue
		}
		flows[fl] = true
		rcv := logic.RcvAt(i.Dst, fmt.Sprintf("flow=%s,src=%s", fl, i.SrcAddr), func(e logic.Event) bool {
			return e.Hdr.Src == i.SrcAddr && pkt.FlowOf(e.Hdr).Canonical() == fl
		})
		snd := logic.SndFrom(i.Dst, fmt.Sprintf("flow=%s", fl), func(e logic.Event) bool {
			return pkt.FlowOf(e.Hdr).Canonical() == fl
		})
		disjuncts = append(disjuncts, logic.And(rcv, logic.Not(logic.Once(snd))))
	}
	if len(disjuncts) == 0 {
		// No alphabet packet can trigger the invariant: bad is
		// unreachable, which engines report as Holds.
		return logic.NewAtom("false", func(logic.Event) bool { return false })
	}
	return logic.Or(disjuncts...)
}

// Nodes implements Invariant.
func (i FlowIsolation) Nodes() []topo.NodeID { return []topo.NodeID{i.Dst} }

// Expectation implements Invariant.
func (i FlowIsolation) Expectation() bool { return true }

// RefAddrs implements Invariant.
func (i FlowIsolation) RefAddrs() []pkt.Addr { return []pkt.Addr{i.SrcAddr} }

// Slots implements Slotted.
func (i FlowIsolation) Slots(w SlotWriter) Invariant {
	w.Byte('f')
	i.Dst, i.SrcAddr = w.Node(i.Dst), w.Addr(i.SrcAddr)
	return i
}

// Traversal asserts every packet received by Dst whose source matches
// SrcPrefix has previously been received by one of the Via middlebox
// instances (the §5.1 "Misconfigured Redundant Routing" invariant: all
// packets traverse an IDPS):
//
//	□¬(rcv(d,n,p) ∧ ¬♦ ∨_m rcv(m,n',p))
type Traversal struct {
	Dst       topo.NodeID
	SrcPrefix pkt.Prefix
	// SrcAddr is a representative sender inside SrcPrefix; its owner is
	// pulled into the slice so that matching traffic exists.
	SrcAddr pkt.Addr
	Vias    []topo.NodeID
	Label   string
}

// Name implements Invariant.
func (i Traversal) Name() string {
	if i.Label != "" {
		return i.Label
	}
	return fmt.Sprintf("traversal(dst=%d,via=%v)", i.Dst, i.Vias)
}

// Bad implements Invariant.
func (i Traversal) Bad(*Problem) logic.Formula {
	match := func(e logic.Event) bool { return i.SrcPrefix.Matches(e.Hdr.Src) }
	rcvAtDst := logic.RcvAt(i.Dst, fmt.Sprintf("src in %s", i.SrcPrefix), match)
	var seen []logic.Formula
	for _, m := range i.Vias {
		seen = append(seen, logic.Once(logic.RcvAt(m, "via", match)))
	}
	return logic.And(rcvAtDst, logic.Not(logic.Or(seen...)))
}

// Nodes implements Invariant.
func (i Traversal) Nodes() []topo.NodeID {
	return append([]topo.NodeID{i.Dst}, i.Vias...)
}

// Expectation implements Invariant.
func (i Traversal) Expectation() bool { return true }

// RefAddrs implements Invariant.
func (i Traversal) RefAddrs() []pkt.Addr {
	if i.SrcAddr == pkt.AddrNone {
		return nil
	}
	return []pkt.Addr{i.SrcAddr}
}

// Slots implements Slotted.
func (i Traversal) Slots(w SlotWriter) Invariant {
	w.Byte('t')
	i.Dst, i.SrcPrefix, i.SrcAddr = w.Node(i.Dst), w.Prefix(i.SrcPrefix), w.Addr(i.SrcAddr)
	w.Uint(uint64(len(i.Vias)))
	vias := make([]topo.NodeID, len(i.Vias))
	for j, m := range i.Vias {
		vias[j] = w.Node(m)
	}
	i.Vias = vias
	return i
}
