// Package mbox is VMN's middlebox model library. Every model implements
// the paper's abstract forwarding model (§3.4): a loop-free reaction to one
// received packet that may consult and update private middlebox state,
// consult oracle-assigned abstract packet classes, rewrite headers, and
// forward zero or more packets. Classification itself is *not* modelled —
// packets arrive already labelled by the classification oracle, exactly as
// in the paper.
//
// Each model further declares:
//
//   - a failure mode (fail-closed / fail-open / explicitly modelled), the
//     @FailClosed-style annotations of §3.4;
//   - a state discipline (flow-parallel / origin-agnostic / general), the
//     §4.1 taxonomy that the slicing engine relies on;
//   - the abstract packet classes it consults, so the oracles know which
//     class bits are relevant for a slice.
//
// Nondeterminism (e.g. a load balancer's backend choice) is exposed as
// multiple Branches; the verification engines explore every branch.
package mbox

import (
	"fmt"
	"sort"
	"strings"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// Discipline is the state-partitioning taxonomy of §4.1.
type Discipline int8

// Disciplines.
const (
	// FlowParallel state is partitioned by flow and only the packet's own
	// flow state is consulted (stateful firewalls, NATs).
	FlowParallel Discipline = iota
	// OriginAgnostic state is shared across flows but indifferent to which
	// host installed it (content caches).
	OriginAgnostic
	// General makes no promise; slices cannot shrink below the network.
	General
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FlowParallel:
		return "flow-parallel"
	case OriginAgnostic:
		return "origin-agnostic"
	default:
		return "general"
	}
}

// FailMode is the failure behaviour of §3.4.
type FailMode int8

// Failure modes.
const (
	// FailClosed drops all packets while the box is failed.
	FailClosed FailMode = iota
	// FailOpen forwards all packets unmodified while the box is failed.
	FailOpen
	// FailExplicit delegates failure behaviour to the model's Process
	// (which sees Input.Failed), like Listing 2's NAT.
	FailExplicit
)

// String names the mode.
func (m FailMode) String() string {
	switch m {
	case FailClosed:
		return "fail-closed"
	case FailOpen:
		return "fail-open"
	default:
		return "fail-explicit"
	}
}

// State is a middlebox's mutable state. Implementations must be
// deep-cloneable and produce a canonical key so the explicit-state engine
// can hash and dedupe product states: AppendKey appends a canonical binary
// fingerprint segment to b (equal states ⇔ equal bytes, regardless of
// insertion order), and Key renders the same bytes as a string for
// debugging and tests. States are shared between explored product states
// and read concurrently by search workers, so both methods must be safe
// for concurrent use on an unmodified state (maintain canonical order at
// construction time, never lazily).
type State interface {
	Key() string
	AppendKey(b []byte) []byte
	Clone() State
}

// Input is one packet arriving at a middlebox.
type Input struct {
	From    topo.NodeID // edge node the packet last surfaced at
	Hdr     pkt.Header
	Classes pkt.ClassSet
	Failed  bool // the box is currently failed (FailExplicit models only)
}

// Output is one packet emitted by a middlebox. Where it goes next is
// decided by the static transfer function applied to the (possibly
// rewritten) header.
type Output struct {
	Hdr     pkt.Header
	Classes pkt.ClassSet
}

// Branch is one nondeterministic alternative of processing a packet: the
// emitted packets plus the successor state.
type Branch struct {
	Label string
	Out   []Output
	Next  State
}

// Model is a middlebox forwarding model. A model passes its input's
// classes through to every output, and declares classes per
// configuration: RelevantClasses is exactly the classes this
// configuration's Process or ReadKeys reads. The SAT engine walks a
// packet once for all class assignments that no box on its journey tells
// apart, so a class read but not declared hides violations, and one
// declared but not read can double the oracle's assignments for nothing.
type Model interface {
	// Type is the model family name ("firewall", "nat", "cache", ...).
	Type() string
	// InitState returns the initial (boot) state.
	InitState() State
	// Process reacts to one packet. It must not mutate st; successor
	// states are returned inside branches. At least one branch is
	// returned; an empty Out means the packet is dropped.
	Process(st State, in Input) []Branch
	// Discipline declares the state-partitioning class (§4.1).
	Discipline() Discipline
	// FailMode declares behaviour while failed (§3.4).
	FailMode() FailMode
	// RelevantClasses reports which abstract classes this configuration
	// consults, resolved against the registry.
	RelevantClasses(reg *pkt.Registry) pkt.ClassSet
}

// Instance binds a model to a topology node.
type Instance struct {
	Node  topo.NodeID
	Model Model
}

// drop is the canonical dropped-packet branch.
func drop(st State, label string) []Branch {
	return []Branch{{Label: label, Next: st}}
}

// forward emits hdr unchanged except as rewritten by the caller.
func forward(st State, label string, outs ...Output) []Branch {
	return []Branch{{Label: label, Out: outs, Next: st}}
}

// emptyState is a reusable stateless State.
type emptyState struct{}

func (emptyState) Key() string               { return "" }
func (emptyState) AppendKey(b []byte) []byte { return b }
func (emptyState) Clone() State              { return emptyState{} }

// setState is a State that is a set of strings, kept as a sorted slice so
// cloning is one copy and the fingerprint needs no per-call sorting.
type setState struct {
	keys []string // sorted, unique
}

func newSetState() *setState { return &setState{} }

func (s *setState) Key() string { return strings.Join(s.keys, "|") }

func (s *setState) AppendKey(b []byte) []byte {
	for _, k := range s.keys {
		b = appendString(b, k)
	}
	return b
}

func (s *setState) Clone() State {
	return &setState{keys: append([]string(nil), s.keys...)}
}

// with returns a copy of s with k added (no-op copy if already present).
func (s *setState) with(k string) *setState {
	i := sort.SearchStrings(s.keys, k)
	if i < len(s.keys) && s.keys[i] == k {
		return s
	}
	keys := make([]string, len(s.keys)+1)
	copy(keys, s.keys[:i])
	keys[i] = k
	copy(keys[i+1:], s.keys[i:])
	return &setState{keys: keys}
}

func (s *setState) has(k string) bool {
	i := sort.SearchStrings(s.keys, k)
	return i < len(s.keys) && s.keys[i] == k
}

func (s *setState) len() int { return len(s.keys) }

// flowKey is the canonical string for a bidirectional flow. It renders
// through the allocation-lean appenders (one allocation for the final
// string) — journey enumeration and explicit search derive state keys per
// packet event, and this used to be a fmt.Sprintf chain.
func flowKey(h pkt.Header) string {
	var buf [64]byte // worst-case rendering is 49 bytes
	return string(pkt.FlowOf(h).Canonical().AppendString(buf[:0]))
}

// checkState panics with a clear message when a model receives a foreign
// state (programming error in the engine).
func checkState[T State](st State, model string) T {
	v, ok := st.(T)
	if !ok {
		panic(fmt.Sprintf("mbox: %s received state of type %T", model, st))
	}
	return v
}
