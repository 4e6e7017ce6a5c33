// Package tf compiles static-datapath forwarding state into transfer
// functions, playing the role VeriFlow/HSA play in the paper (§3.5): given
// a topology, per-switch forwarding tables and a failure scenario, it
// produces a function from a located packet to the next edge node
// (host, external world or middlebox). The verifier then models the whole
// static fabric as a single pseudo-node Ω whose behaviour is this function.
//
// Static forwarding loops are detected and reported as errors, mirroring
// VMN's behaviour of raising an exception on loops (footnote 5 and §3.5 of
// the paper); loop-freedom is what keeps the network axioms first-order.
package tf

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// ErrLoop is returned when the static forwarding state sends a packet
// around a cycle.
var ErrLoop = errors.New("tf: static forwarding loop")

// Rule is one forwarding entry of a switch (or of an edge node that needs
// explicit egress routing). Rules are selected by highest Priority first;
// among equal priorities, an ingress-specific rule beats a wildcard one and
// a longer prefix beats a shorter one. Rules whose Out node is failed are
// skipped, which is how backup paths (lower-priority rules) take over under
// failure scenarios.
type Rule struct {
	Match    pkt.Prefix  // destination prefix
	In       topo.NodeID // required ingress neighbor; NodeNone = any
	Out      topo.NodeID // next-hop neighbor
	Priority int
}

// FIB maps each node to its forwarding rules.
type FIB map[topo.NodeID][]Rule

// Add appends a rule to node n's table.
func (f FIB) Add(n topo.NodeID, r Rule) { f[n] = append(f[n], r) }

// Engine evaluates the transfer function for one failure scenario: a view
// over compiled Tables (shared with every other view of the same
// forwarding state) plus the scenario and a walk memo of its own.
type Engine struct {
	topo *topo.Topology
	tabs *Tables
	fail topo.FailureScenario
	fp   uint64

	// memo caches Next results (and consulted/tableReads cache the
	// Consulted/ConsultedTables read sets); guarded by mu so the
	// explicit-state engine's parallel search workers can share one Engine.
	mu         sync.RWMutex
	memo       map[memoKey]memoVal
	consulted  map[memoKey][]topo.NodeID
	tableReads map[memoKey][]topo.NodeID
}

type memoKey struct {
	from topo.NodeID
	dst  pkt.Addr
}

type memoVal struct {
	next topo.NodeID
	ok   bool
	err  error
}

// New builds an engine over the given topology, tables and failure
// scenario. The FIB's rule lists are not copied; callers must not mutate
// them afterwards.
func New(t *topo.Topology, fib FIB, fail topo.FailureScenario) *Engine {
	return Compile(t, fib).Engine(fail)
}

// Engine returns a fresh view of the compiled state under fail.
func (t *Tables) Engine(fail topo.FailureScenario) *Engine {
	// The fingerprint combines the scenario with the tables' content hash,
	// so it is a pure function of the behaviour-determining state — the
	// failed set and the priority-sorted tables fix every hop decision —
	// and costs nothing per table here.
	h := mix64(uint64(fail.Count()))
	for _, n := range fail.Nodes() {
		h = mix64(h ^ uint64(uint32(n)))
	}
	return &Engine{topo: t.topo, tabs: t, fail: fail, fp: mix64(h ^ t.hash),
		memo:       map[memoKey]memoVal{},
		consulted:  map[memoKey][]topo.NodeID{},
		tableReads: map[memoKey][]topo.NodeID{},
	}
}

// Fingerprint returns a 64-bit hash of the engine's behaviour-determining
// state (scenario + sorted tables). Two engines over the same topology
// that are SameBehaviour have equal fingerprints; callers that share
// engines (and their warm memoization) on a fingerprint match confirm it
// with SameBehaviour.
func (e *Engine) Fingerprint() uint64 { return e.fp }

// SameBehaviour reports whether two engines over the same topology decide
// every hop alike: equal failed sets and equal sorted tables.
func (e *Engine) SameBehaviour(o *Engine) bool {
	if e.fail.Count() != o.fail.Count() {
		return false
	}
	for _, n := range e.fail.Nodes() {
		if !o.fail.Failed(n) {
			return false
		}
	}
	return e.tabs.Equal(o.tabs)
}

// Failure returns the engine's failure scenario.
func (e *Engine) Failure() topo.FailureScenario { return e.fail }

// Tables returns the compiled forwarding state the engine views.
func (e *Engine) Tables() *Tables { return e.tabs }

// hop picks the next hop at node `at` for a packet to dst that arrived from
// `prev`. The boolean result is false when the packet is dropped
// (no applicable rule and no implicit default).
func (e *Engine) hop(at, prev topo.NodeID, dst pkt.Addr) (topo.NodeID, bool) {
	return e.hopConsult(at, prev, dst, nil)
}

// hopConsult is hop with an optional probe: consult is invoked for every
// node whose LIVENESS the decision reads beyond the nodes the walk itself
// visits — failed rule targets that are routed around, and every neighbor
// examined by the implicit-default ambiguity check. Together with the
// visited nodes this is the complete read set of the decision, which is
// what makes Consulted a sound dependency footprint (see Consulted).
func (e *Engine) hopConsult(at, prev topo.NodeID, dst pkt.Addr, consult func(topo.NodeID)) (topo.NodeID, bool) {
	for _, r := range e.tabs.sorted(at) {
		if r.In != topo.NodeNone && r.In != prev {
			continue
		}
		if !r.Match.Matches(dst) {
			continue
		}
		if e.fail.Failed(r.Out) && e.topo.Node(r.Out).Kind == topo.Switch {
			if consult != nil {
				consult(r.Out) // liveness read: skipped because failed
			}
			continue // route around failed fabric elements
		}
		return r.Out, true
	}
	// Implicit default for edge nodes with a single live link. The choice
	// reads the liveness of every neighbor.
	if e.topo.Node(at).IsEdge() {
		var candidate topo.NodeID = topo.NodeNone
		for _, nb := range e.topo.Neighbors(at) {
			if consult != nil {
				consult(nb)
			}
			if e.fail.Failed(nb) && e.topo.Node(nb).Kind == topo.Switch {
				continue
			}
			if candidate != topo.NodeNone {
				return topo.NodeNone, false // ambiguous: require explicit rules
			}
			candidate = nb
		}
		if candidate != topo.NodeNone {
			return candidate, true
		}
	}
	return topo.NodeNone, false
}

// Next evaluates the compiled transfer function: it carries a packet
// located at edge node `from` with destination address dst across the
// switch fabric and returns the edge node where it next surfaces. ok=false
// means the fabric drops the packet (blackhole); ErrLoop reports a static
// forwarding loop. Next is safe for concurrent use.
func (e *Engine) Next(from topo.NodeID, dst pkt.Addr) (next topo.NodeID, ok bool, err error) {
	k := memoKey{from, dst}
	e.mu.RLock()
	v, hit := e.memo[k]
	e.mu.RUnlock()
	if hit {
		return v.next, v.ok, v.err
	}
	next, ok, err = e.walk(from, dst)
	e.mu.Lock()
	e.memo[k] = memoVal{next, ok, err}
	e.mu.Unlock()
	return next, ok, err
}

func (e *Engine) walk(from topo.NodeID, dst pkt.Addr) (topo.NodeID, bool, error) {
	if !e.topo.Node(from).IsEdge() {
		return topo.NodeNone, false, fmt.Errorf("tf: transfer function must start at an edge node, got %s", e.topo.Node(from).Name)
	}
	prev := topo.NodeNone
	cur := from
	visited := map[topo.NodeID]bool{}
	for {
		nxt, ok := e.hop(cur, prev, dst)
		if !ok {
			return topo.NodeNone, false, nil
		}
		n := e.topo.Node(nxt)
		if n.IsEdge() {
			return nxt, true, nil
		}
		if visited[nxt] {
			return topo.NodeNone, false, fmt.Errorf("%w: dst %s revisits %s", ErrLoop, dst, n.Name)
		}
		visited[nxt] = true
		prev, cur = cur, nxt
	}
}

// Consulted returns every node whose forwarding state OR liveness the
// transfer function reads when carrying a packet from edge node `from`
// toward dst: the starting node, every fabric node the packet crosses,
// the edge node where it surfaces, every failed rule target the walk
// routes around, and every neighbor examined by an implicit-default
// choice. A packet dropped mid-fabric still consulted the table of the
// node that dropped it, and a looping walk consulted every node on the
// cycle, so both are included — Consulted never errors. The result is the
// complete read set of the walk and hence the dependency footprint
// incremental verification dirties and fingerprints on: a forwarding-state
// or liveness change at any node NOT in this set cannot alter the walk
// (the walk is deterministic, and every table or liveness bit it reads
// belongs to a node in the set). Consulted is memoized and safe for
// concurrent use; callers must not mutate the returned slice.
func (e *Engine) Consulted(from topo.NodeID, dst pkt.Addr) []topo.NodeID {
	nodes, _ := e.reads(from, dst)
	return nodes
}

// ConsultedTables returns the subset of Consulted whose forwarding TABLES
// the walk reads: every node where a hop decision was evaluated — the
// starting edge node, each fabric node crossed, the node that dropped the
// packet or closed a loop. A hop decision reads the node's complete rule
// list for dst, so this includes negative reads: a lookup that matched
// only a covering low-priority rule (or nothing at all, falling through to
// the implicit default) still read the absence of any more-specific
// match, and a rule installed later that would have won must dirty every
// check that performed such a lookup. Prefix-granular dependency tracking
// (internal/incr) therefore records one (node, dst) read atom per entry of
// this set; nodes consulted for liveness only (failed rule targets routed
// around, implicit-default neighbors, the edge node where the packet
// surfaces) are excluded — their tables were never read, so forwarding
// changes there cannot alter the walk. Memoized and safe for concurrent
// use; callers must not mutate the returned slice.
func (e *Engine) ConsultedTables(from topo.NodeID, dst pkt.Addr) []topo.NodeID {
	_, tables := e.reads(from, dst)
	return tables
}

// reads computes (and memoizes) the complete read set of the walk
// (from, dst) — all consulted nodes, plus the table-read subset.
func (e *Engine) reads(from topo.NodeID, dst pkt.Addr) (nodes, tables []topo.NodeID) {
	k := memoKey{from, dst}
	e.mu.RLock()
	v, hit := e.consulted[k]
	tv := e.tableReads[k]
	e.mu.RUnlock()
	if hit {
		return v, tv
	}
	seen := map[topo.NodeID]bool{from: true}
	nodes = []topo.NodeID{from}
	add := func(n topo.NodeID) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	if e.topo.Node(from).IsEdge() {
		// Every `cur` position evaluates a hop decision and hence reads the
		// node's table; the walk starts at `from`.
		tables = append(tables, from)
		prev := topo.NodeNone
		cur := from
		visited := map[topo.NodeID]bool{}
		for {
			nxt, ok := e.hopConsult(cur, prev, dst, add)
			if !ok {
				break
			}
			stop := e.topo.Node(nxt).IsEdge() || visited[nxt]
			add(nxt)
			if stop {
				break
			}
			visited[nxt] = true
			tables = append(tables, nxt)
			prev, cur = cur, nxt
		}
	}
	e.mu.Lock()
	e.consulted[k] = nodes
	e.tableReads[k] = tables
	e.mu.Unlock()
	return nodes, tables
}

// Path traces the sequence of edge nodes a packet visits from `from` to the
// host owning dst, treating middleboxes as pass-through (their mutable
// behaviour is irrelevant for static pipeline checking). It returns the
// visited edge nodes in order, ending with the destination host, and
// errors on loops (including loops through middleboxes) or if the packet
// is dropped by the fabric. A loop is found by scanning the path so far,
// which visits each edge node at most once.
func (e *Engine) Path(from topo.NodeID, dst pkt.Addr) ([]topo.NodeID, error) {
	var path []topo.NodeID
	cur := from
	for {
		next, ok, err := e.Next(cur, dst)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("tf: packet from %s to %s dropped at %s",
				e.topo.Node(from).Name, dst, e.topo.Node(cur).Name)
		}
		n := e.topo.Node(next)
		if n.Kind == topo.Host || n.Kind == topo.External {
			if n.Addr == dst || n.Kind == topo.External {
				return append(path, next), nil
			}
			return nil, fmt.Errorf("tf: packet to %s delivered to wrong host %s", dst, n.Name)
		}
		if next == from || slices.Contains(path, next) {
			return nil, fmt.Errorf("%w: middlebox cycle through %s", ErrLoop, n.Name)
		}
		path = append(path, next)
		cur = next
	}
}
