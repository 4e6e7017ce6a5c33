// Package vmn is VMN — Verification for Middlebox Networks — a verifier
// for reachability invariants in networks with mutable datapaths, a Go
// reproduction of Panda et al., "Verifying Reachability in Networks with
// Mutable Datapaths" (NSDI 2017).
//
// VMN models a network as a topology of hosts, switches and middleboxes,
// per-failure-scenario forwarding tables (compiled into transfer functions
// as in VeriFlow/HSA), and middlebox forwarding models (stateful
// firewalls, NATs, caches, IDPSes, ...) written either natively or in the
// paper's middlebox modelling language. Invariants — simple isolation,
// flow isolation, data isolation, reachability and middlebox traversal —
// are checked by grounding the network into a finite-domain formula solved
// by a built-in CDCL SAT solver (the Z3 analogue), or by an explicit-state
// product search. Slicing (§4.1) keeps verification time independent of
// network size; symmetry (§4.2) collapses equivalent invariants.
//
// Quick start:
//
//	net := &vmn.Network{Topo: ..., Boxes: ..., FIBFor: ...}
//	v, err := vmn.NewVerifier(net, vmn.Options{})
//	reports, err := v.VerifyInvariant(vmn.SimpleIsolation{Dst: h, SrcAddr: a})
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package vmn

import (
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/hsa"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/mdl"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Network, verifier and reports.
type (
	// Network is a complete VMN input: topology, middlebox instances,
	// abstract-class registry, policy classes and forwarding state.
	Network = core.Network
	// Verifier checks invariants over a Network.
	Verifier = core.Verifier
	// Options tune verification (engine, slicing, schedule bound, budgets).
	Options = core.Options
	// Report is the verdict for one (invariant, failure scenario) pair.
	Report = core.Report
	// EngineKind selects the verification backend.
	EngineKind = core.EngineKind
)

// Engine selection.
const (
	EngineAuto     = core.EngineAuto
	EngineSAT      = core.EngineSAT
	EngineExplicit = core.EngineExplicit
)

// NewVerifier builds a verifier over net.
func NewVerifier(net *Network, opts Options) (*Verifier, error) {
	return core.NewVerifier(net, opts)
}

// Incremental verification (internal/incr): a long-lived Session absorbs
// change-sets and re-verifies only what each change can affect, using a
// slice-derived dependency index, a fingerprint-keyed verdict cache and a
// parallel re-verification pool. See also cmd/vmnd, the JSON-over-stdin
// service built on Session.
type (
	// Session is a long-lived incremental verifier over one Network.
	Session = incr.Session
	// SessionOptions tune a Session (symmetry grouping, request deadline,
	// observability, durability).
	SessionOptions = incr.Options
	// Change is one element of a change-set.
	Change = incr.Change
	// ApplyStats describes one Session.Apply (dirty and cache counters,
	// including canonical-class counters: dirty classes, inherited
	// verdicts, canonical cache hits).
	ApplyStats = incr.ApplyStats
	// SessionTotals accumulates session-lifetime counters (solves, cache
	// hits by kind, canonical classes and shares); see also
	// Session.CanonStats for the verifier-level canonicalization counters.
	SessionTotals = incr.Totals
)

// Transactional what-if verification: Session.Propose verifies a
// change-set against shadow state and returns a decision with verified
// minimal-repair suggestions on rejection; Session.Commit promotes the
// shadow atomically; Session.Rollback leaves the session bit-identical
// to never having proposed. See DESIGN.md.
type (
	// ProposeResult is the outcome of one Session.Propose.
	ProposeResult = incr.ProposeResult
	// ProposeDecision is the session's accept/reject verdict on a
	// proposed change-set.
	ProposeDecision = incr.Decision
	// Repair is one verified minimal-repair suggestion (indices of
	// proposed changes whose removal makes the change-set verify green).
	Repair = incr.Repair
)

// Propose decisions and transactional-ordering errors.
const (
	ProposeAccept = incr.Accept
	ProposeReject = incr.Reject
)

var (
	ErrProposePending = incr.ErrProposePending
	ErrNoPropose      = incr.ErrNoPropose
)

// NewSession builds a session over net, verifies invs once, and returns
// the session plus the initial reports.
func NewSession(net *Network, opts Options, invs []Invariant, sopts SessionOptions) (*Session, []Report, error) {
	return incr.NewSession(net, opts, invs, sopts)
}

// Change constructors. NodeDown/NodeUp model link and element failures
// becoming real (node granularity); FIBUpdate swaps in recomputed
// forwarding state; BoxSwap binds a middlebox model (a new box or a new
// configuration) and BoxRemove unbinds one; Relabel moves a node between
// policy equivalence classes; AddInvariant/RemoveInvariant edit the
// verified set. Every change carries its new value.
var (
	NodeDown        = incr.NodeDown
	NodeUp          = incr.NodeUp
	FIBUpdate       = incr.FIBUpdate
	BoxRemove       = incr.BoxRemove
	BoxSwap         = incr.BoxSwap
	Relabel         = incr.Relabel
	AddInvariant    = incr.AddInvariant
	RemoveInvariant = incr.RemoveInvariant
)

// Invariants (§3.3 of the paper).
type (
	// Invariant is a reachability-class invariant.
	Invariant = inv.Invariant
	// SimpleIsolation: Dst never receives a packet with source SrcAddr.
	SimpleIsolation = inv.SimpleIsolation
	// FlowIsolation: Dst accepts packets from SrcAddr only on flows Dst
	// initiated.
	FlowIsolation = inv.FlowIsolation
	// DataIsolation: Dst never receives data originating at Origin, even
	// via caches.
	DataIsolation = inv.DataIsolation
	// Reachability: Dst can receive a packet from SrcAddr (positive).
	Reachability = inv.Reachability
	// Traversal: packets from SrcPrefix to Dst must cross one of Vias.
	Traversal = inv.Traversal
	// Result is an engine verdict (outcome + witness trace).
	Result = inv.Result
	// Outcome is holds / violated / unknown.
	Outcome = inv.Outcome
)

// Outcomes.
const (
	Holds    = inv.Holds
	Violated = inv.Violated
	Unknown  = inv.Unknown
)

// Topology building.
type (
	// Topology is the network graph.
	Topology = topo.Topology
	// NodeID identifies a node.
	NodeID = topo.NodeID
	// FailureScenario is a set of failed nodes.
	FailureScenario = topo.FailureScenario
)

// NewTopology creates an empty topology.
func NewTopology() *Topology { return topo.New() }

// NoFailures is the fault-free scenario.
func NoFailures() FailureScenario { return topo.NoFailures() }

// Failures builds a scenario with the given nodes down.
func Failures(nodes ...NodeID) FailureScenario { return topo.Failures(nodes...) }

// SingleFailures enumerates the fault-free scenario plus each single
// failure.
func SingleFailures(candidates []NodeID) []FailureScenario {
	return topo.SingleFailures(candidates)
}

// Packets and addressing.
type (
	// Addr is an IPv4-style address.
	Addr = pkt.Addr
	// Prefix is a CIDR prefix.
	Prefix = pkt.Prefix
	// Header is a packet header.
	Header = pkt.Header
	// ClassRegistry names abstract packet classes.
	ClassRegistry = pkt.Registry
)

// ParseAddr parses "a.b.c.d".
func ParseAddr(s string) (Addr, error) { return pkt.ParseAddr(s) }

// MustParseAddr parses or panics.
func MustParseAddr(s string) Addr { return pkt.MustParseAddr(s) }

// HostPrefix is the /32 of an address.
func HostPrefix(a Addr) Prefix { return pkt.HostPrefix(a) }

// NewClassRegistry creates an empty abstract-class registry.
func NewClassRegistry() *ClassRegistry { return pkt.NewRegistry() }

// Forwarding state (transfer functions, §3.5).
type (
	// FIB maps nodes to forwarding rules.
	FIB = tf.FIB
	// FwdRule is one forwarding entry.
	FwdRule = tf.Rule
)

// TransferEngine is a compiled transfer function for one failure scenario
// (the VeriFlow/HSA role of §3.5).
type TransferEngine = tf.Engine

// NewTransferEngine compiles forwarding state into a transfer function.
func NewTransferEngine(t *Topology, fib FIB, scenario FailureScenario) *TransferEngine {
	return tf.New(t, fib, scenario)
}

// Middlebox models (§3.4).
type (
	// Middlebox is a middlebox forwarding model.
	Middlebox = mbox.Model
	// MiddleboxInstance binds a model to a topology node.
	MiddleboxInstance = mbox.Instance
	// ACLEntry is a firewall/cache access-control entry.
	ACLEntry = mbox.ACLEntry
	// LearningFirewall is the paper's Listing 1 stateful firewall.
	LearningFirewall = mbox.LearningFirewall
	// NAT is the paper's Listing 2 NAT.
	NAT = mbox.NAT
	// ContentCache is the origin-agnostic cache of §5.2.
	ContentCache = mbox.ContentCache
	// IDPS is the intrusion detection/prevention box of §5.3.3.
	IDPS = mbox.IDPS
	// Scrubber is the central attack-scrubbing box of §5.3.3.
	Scrubber = mbox.Scrubber
	// LoadBalancer is a sticky L4 load balancer.
	LoadBalancer = mbox.LoadBalancer
)

// Model constructors.
var (
	// NewLearningFirewall builds a default-deny stateful firewall.
	NewLearningFirewall = mbox.NewLearningFirewall
	// NewNAT builds a source NAT.
	NewNAT = mbox.NewNAT
	// NewContentCache builds a content cache.
	NewContentCache = mbox.NewContentCache
	// NewIDPS builds an IDS/IPS rerouting to a scrubber.
	NewIDPS = mbox.NewIDPS
	// NewScrubber builds a scrubbing box.
	NewScrubber = mbox.NewScrubber
	// NewLoadBalancer builds a load balancer.
	NewLoadBalancer = mbox.NewLoadBalancer
	// AllowEntry / DenyEntry build ACL entries.
	AllowEntry = mbox.AllowEntry
	DenyEntry  = mbox.DenyEntry
)

// ParseModel parses a middlebox model written in the paper's modelling
// language (§3.4, Listings 1–2) and Instantiate binds it to configuration.
var (
	ParseModel       = mdl.Parse
	InstantiateModel = mdl.Instantiate
)

// MDLConfig supplies configuration to an MDL-defined model.
type MDLConfig = mdl.Config

// Pipeline invariants (§2.3) are verified statically over the transfer
// function, as the paper prescribes.
type (
	// PipelineSequence requires traversal of middlebox types in order.
	PipelineSequence = hsa.Sequence
	// PipelineDAG is the general DAG-shaped pipeline invariant.
	PipelineDAG = hsa.DAG
	// PipelineViolation reports a failed pipeline check.
	PipelineViolation = hsa.Violation
)

// CheckPipelineSequence verifies a sequence pipeline invariant.
var CheckPipelineSequence = hsa.CheckSequence

// CheckPipelineDAG verifies a DAG pipeline invariant.
var CheckPipelineDAG = hsa.CheckDAG

// Event is one entry of a violation witness trace.
type Event = logic.Event
