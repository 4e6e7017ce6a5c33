// Package explore is VMN's explicit-state verification engine: an
// exhaustive breadth-first search over the product of middlebox states,
// in-flight packets and the invariant monitor. It considers every
// interleaving of sends and deliveries the scheduling oracle could choose
// and every packet-class assignment the classification oracle could make
// (§3: "we do not attempt to model the likely order of these events, but
// instead consider all such orders in search of invariant violations").
//
// The engine is the reference oracle for the SAT-based engine in
// internal/encode: property tests assert the two agree on verdicts.
//
// # State fingerprints
//
// Product states are deduplicated on compact binary fingerprints instead
// of formatted strings: every mbox.State contributes a canonical binary
// segment via AppendKey, and the engine encodes middlebox segments
// (length-framed), the sorted in-flight packet records, the monitor word
// and the send count into one reusable buffer (key.go). The visited set
// is keyed by a 64-bit FNV-1a hash of that encoding and keeps the full
// key per entry, so hash collisions are detected by byte comparison and
// can never merge two distinct states (visited.go).
//
// # Level-synchronous parallel search
//
// The BFS frontier is expanded level by level by Options.Workers workers.
// Each level runs in phases: (1) workers expand frontier nodes in
// parallel, each with its own forked monitor and reused scratch buffers,
// probing the visited set read-only; (2) results are reduced strictly in
// submission order — state counting, budget checks, violation selection;
// (3) successor keys are inserted into the sharded visited set, each
// shard owned by one goroutine, and the next frontier is assembled in the
// same submission order. Because every reduction happens in frontier
// order, the verdict, the violation trace and StatesExplored are
// bit-identical for every Workers value, including Workers=1 (which runs
// the same phases inline with no goroutines).
package explore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// ErrHopBound is returned (wrapped with the offending middlebox) when a
// packet exceeds Options.MaxHops middlebox-to-middlebox forwardings,
// which indicates a middlebox forwarding loop.
var ErrHopBound = errors.New("explore: middlebox hop bound exceeded")

// Options tune the search.
type Options struct {
	// MaxHops bounds middlebox-to-middlebox forwarding chains per packet
	// (0 means inv.MaxHops, the SAT engine's bound); exceeding it indicates
	// a middlebox forwarding loop and is an error (the static fabric is
	// already loop-checked by internal/tf).
	MaxHops int
	// MaxStates bounds the number of distinct product states explored;
	// exceeding it yields Unknown.
	MaxStates int
	// Workers is the number of goroutines expanding each BFS level;
	// 0 means GOMAXPROCS. Verdicts, violation traces and StatesExplored
	// are identical for every value.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxHops == 0 {
		o.MaxHops = inv.MaxHops
	}
	if o.MaxStates == 0 {
		o.MaxStates = 500000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// flight is an in-flight packet about to surface at edge node At.
type flight struct {
	Hdr     pkt.Header
	Classes pkt.ClassSet
	From    topo.NodeID
	At      topo.NodeID
	Hops    int
}

// node is one BFS node.
type node struct {
	boxes   []mbox.State
	flights []flight
	mon     uint64
	sends   int

	parent *node
	events []logic.Event // events of the transition that produced this node
}

// succ is one generated successor with its fingerprint.
type succ struct {
	n    *node
	hash uint64
	key  []byte // arena-backed full key, stable for the visited set
}

// expansion is the result of expanding one frontier node.
type expansion struct {
	succs     []succ
	violation *node
	err       error
}

// worker is per-goroutine scratch state: a forked monitor, reusable
// encoding buffers and an arena for visited-set keys. A worker is only
// ever used by one goroutine at a time.
type worker struct {
	mon     *logic.Monitor
	keyBuf  []byte
	segBuf  []byte
	restBuf []flight
	arena   arena
}

// searcher carries the immutable search context shared by all workers.
type searcher struct {
	p       *inv.Problem
	opts    Options
	boxIdx  map[topo.NodeID]int
	assigns []pkt.ClassSet
	vis     *visited
	workers []*worker
}

// Verify runs the search and returns the verdict.
func Verify(p *inv.Problem, opts Options) (inv.Result, error) {
	opts = opts.withDefaults()
	if p.MaxSends <= 0 {
		return inv.Result{}, fmt.Errorf("explore: MaxSends must be positive")
	}
	boxIdx := make(map[topo.NodeID]int, len(p.Boxes))
	for i, b := range p.Boxes {
		boxIdx[b.Node] = i
	}
	mon := logic.Compile(p.Invariant.Bad(p))

	s := &searcher{
		p:       p,
		opts:    opts,
		boxIdx:  boxIdx,
		assigns: p.ClassAssignments(),
		vis:     newVisited(),
		workers: make([]*worker, opts.Workers),
	}
	for i := range s.workers {
		s.workers[i] = &worker{mon: mon.Fork()}
	}

	initBoxes := make([]mbox.State, len(p.Boxes))
	for i, b := range p.Boxes {
		initBoxes[i] = b.Model.InitState()
	}
	root := &node{boxes: initBoxes, mon: mon.State()}
	w0 := s.workers[0]
	w0.keyBuf, w0.segBuf = appendNodeKey(w0.keyBuf[:0], w0.segBuf, root)
	s.vis.insert(hashKey(w0.keyBuf), w0.arena.save(w0.keyBuf))

	frontier := []*node{root}
	explored := 0
	exps := []expansion(nil)
	for len(frontier) > 0 {
		var next []*node
		// Each level is processed in fixed-size chunks: expand a chunk in
		// parallel, reduce it in submission order, dedup it, then move on.
		// Chunking bounds peak memory — duplicate successors (the vast
		// majority in converging state spaces) are dropped after each
		// chunk instead of accumulating across the whole level — without
		// changing any outcome: chunks are processed in frontier order,
		// so the global pop/insert order is still the sequential one.
		for base := 0; base < len(frontier); base += expandChunk {
			end := base + expandChunk
			if end > len(frontier) {
				end = len(frontier)
			}
			work := frontier[base:end]
			// Budget truncation: a sequential pop loop stops the instant
			// the MaxStates budget is exceeded, never expanding later
			// nodes. Only expand the prefix the budget still covers; more
			// frontier than budget means Unknown after the prefix is
			// scanned, in order, for earlier errors and violations.
			truncated := false
			if remaining := s.opts.MaxStates - explored; len(work) > remaining {
				work = work[:remaining]
				truncated = true
			}

			// Phase 1: expand the chunk in parallel.
			if cap(exps) < len(work) {
				exps = make([]expansion, len(work))
			}
			exps = exps[:len(work)]
			s.parallel(len(work), func(wi, i int) {
				exps[i] = s.expand(s.workers[wi], work[i])
			})

			// Phase 2: reduce in submission order. Mirrors the sequential
			// pop-count-expand loop exactly, so budget exhaustion, errors
			// and violation selection are deterministic.
			var flat []succ
			for i := range work {
				explored++
				e := &exps[i]
				if e.err != nil {
					return inv.Result{}, e.err
				}
				if e.violation != nil {
					return inv.Result{
						Outcome:        inv.Violated,
						Trace:          collectTrace(e.violation),
						StatesExplored: explored,
					}, nil
				}
				flat = append(flat, e.succs...)
			}
			if truncated {
				// The next pop would exceed the budget.
				return inv.Result{Outcome: inv.Unknown, StatesExplored: explored + 1}, nil
			}

			// Phase 3: dedup through the sharded visited set. Each shard
			// is written by exactly one goroutine, and every shard scans
			// the chunk's successors in submission order, so the first
			// occurrence of a key wins deterministically.
			keep := make([]bool, len(flat))
			var buckets [numShards][]int32
			for j := range flat {
				sh := shardOf(flat[j].hash)
				buckets[sh] = append(buckets[sh], int32(j))
			}
			s.parallel(numShards, func(_, sh int) {
				for _, j := range buckets[sh] {
					keep[j] = s.vis.insert(flat[j].hash, flat[j].key)
				}
			})

			for j := range flat {
				if keep[j] {
					next = append(next, flat[j].n)
				}
			}
		}
		frontier = next
	}
	return inv.Result{Outcome: inv.Holds, StatesExplored: explored}, nil
}

// expandChunk is the number of frontier nodes expanded per parallel batch;
// it trades scheduling overhead against the peak number of undeduplicated
// successors held in memory at once.
const expandChunk = 1024

// parallel runs fn(worker, i) for i in [0, n) across the configured
// workers. With one worker (or one task) it runs inline.
func (s *searcher) parallel(n int, fn func(wi, i int)) {
	workers := s.opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wi := 0; wi < workers; wi++ {
		go func(wi int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(wi, i)
			}
		}(wi)
	}
	wg.Wait()
}

// record fingerprints n and appends it to e.succs, unless the state is
// already known from an earlier level (read-only probe; same-level
// duplicates are resolved by the ordered insert phase).
func (s *searcher) record(w *worker, e *expansion, n *node) {
	w.keyBuf, w.segBuf = appendNodeKey(w.keyBuf[:0], w.segBuf, n)
	h := hashKey(w.keyBuf)
	if s.vis.contains(h, w.keyBuf) {
		return
	}
	e.succs = append(e.succs, succ{n: n, hash: h, key: w.arena.save(w.keyBuf)})
}

// expand generates all successors of cur. If a transition trips the
// monitor, the successor is returned as a violation witness.
func (s *searcher) expand(w *worker, cur *node) (e expansion) {
	// Host sends.
	if cur.sends < s.p.MaxSends {
		for _, smp := range s.p.Samples {
			for _, cls := range s.assigns {
				n, bad, err := s.applySend(w, cur, smp, cls)
				if err != nil {
					return expansion{err: err}
				}
				if bad {
					return expansion{violation: n}
				}
				s.record(w, &e, n)
			}
		}
	}
	// Deliveries of in-flight packets.
	for i := range cur.flights {
		next, bad, err := s.applyDeliver(w, cur, i)
		if err != nil {
			return expansion{err: err}
		}
		if bad && len(next) > 0 {
			return expansion{violation: next[0]}
		}
		for _, n := range next {
			s.record(w, &e, n)
		}
	}
	return e
}

// cloneBoxes copies the (shared, immutable) middlebox state vector.
func cloneBoxes(in []mbox.State) []mbox.State {
	out := make([]mbox.State, len(in))
	copy(out, in)
	return out
}

// cloneFlights copies fs with room for extra appended flights.
func cloneFlights(fs []flight, extra int) []flight {
	out := make([]flight, len(fs), len(fs)+extra)
	copy(out, fs)
	return out
}

// sendEvent builds the EvSend event for a header leaving src.
func sendEvent(p *inv.Problem, src topo.NodeID, h pkt.Header, cls pkt.ClassSet) logic.Event {
	dst := topo.NodeNone
	if n, ok := p.Topo.HostByAddr(h.Dst); ok {
		dst = n.ID
	}
	return logic.Event{Kind: logic.EvSend, Src: src, Dst: dst, Hdr: h, Classes: cls}
}

// applySend injects sample smp with class assignment cls.
func (s *searcher) applySend(w *worker, cur *node, smp inv.Sample, cls pkt.ClassSet) (*node, bool, error) {
	to, ok, err := s.p.TF.Next(smp.Sender, smp.Hdr.RouteAddr())
	if err != nil {
		return nil, false, err
	}
	n := &node{
		boxes:   cur.boxes, // sends do not touch middlebox state
		flights: cloneFlights(cur.flights, 1),
		sends:   cur.sends + 1,
		parent:  cur,
	}
	w.mon.SetState(cur.mon)
	ev := sendEvent(s.p, smp.Sender, smp.Hdr, cls)
	bad := w.mon.Step(ev)
	n.events = []logic.Event{ev}
	n.mon = w.mon.State()
	if ok {
		n.flights = append(n.flights, flight{Hdr: smp.Hdr, Classes: cls, From: smp.Sender, At: to})
	}
	return n, bad, nil
}

// applyDeliver delivers cur.flights[i], possibly through a middlebox whose
// nondeterminism forks the state.
func (s *searcher) applyDeliver(w *worker, cur *node, i int) ([]*node, bool, error) {
	fl := cur.flights[i]
	// rest = flights minus the delivered one, in worker scratch; every
	// successor copies it with its own capacity hint.
	rest := append(w.restBuf[:0], cur.flights[:i]...)
	rest = append(rest, cur.flights[i+1:]...)
	w.restBuf = rest

	nodeInfo := s.p.Topo.Node(fl.At)
	// Delivery to a host or external node: a receive event, packet consumed.
	if nodeInfo.Kind == topo.Host || nodeInfo.Kind == topo.External {
		n := &node{boxes: cur.boxes, flights: cloneFlights(rest, 0), sends: cur.sends, parent: cur}
		w.mon.SetState(cur.mon)
		ev := logic.Event{Kind: logic.EvRecv, Dst: fl.At, Src: fl.From, Hdr: fl.Hdr, Classes: fl.Classes}
		bad := w.mon.Step(ev)
		n.events = []logic.Event{ev}
		n.mon = w.mon.State()
		return []*node{n}, bad, nil
	}
	if nodeInfo.Kind != topo.Middlebox {
		return nil, false, fmt.Errorf("explore: packet surfaced at switch %s", nodeInfo.Name)
	}
	bi, ok := s.boxIdx[fl.At]
	if !ok {
		return nil, false, fmt.Errorf("explore: no model bound to middlebox %s", nodeInfo.Name)
	}
	model := s.p.Boxes[bi].Model
	failed := s.p.Scenario.Failed(fl.At)

	// Failure shortcuts (§3.4): failed boxes emit no events.
	if failed && model.FailMode() == mbox.FailClosed {
		n := &node{boxes: cur.boxes, flights: cloneFlights(rest, 0), mon: cur.mon, sends: cur.sends, parent: cur}
		return []*node{n}, false, nil
	}
	if failed && model.FailMode() == mbox.FailOpen {
		if fl.Hops+1 > s.opts.MaxHops {
			return nil, false, fmt.Errorf("%w at %s", ErrHopBound, nodeInfo.Name)
		}
		to, fok, err := s.p.TF.Next(fl.At, fl.Hdr.RouteAddr())
		if err != nil {
			return nil, false, err
		}
		n := &node{boxes: cur.boxes, flights: cloneFlights(rest, 1), mon: cur.mon, sends: cur.sends, parent: cur}
		if fok {
			n.flights = append(n.flights, flight{Hdr: fl.Hdr, Classes: fl.Classes, From: fl.At, At: to, Hops: fl.Hops + 1})
		}
		return []*node{n}, false, nil
	}

	// Healthy (or fail-explicit) processing: rcv event then model reaction.
	w.mon.SetState(cur.mon)
	rcv := logic.Event{Kind: logic.EvRecv, Dst: fl.At, Src: fl.From, Hdr: fl.Hdr, Classes: fl.Classes}
	bad := w.mon.Step(rcv)
	monAfterRcv := w.mon.State()

	branches := model.Process(cur.boxes[bi], mbox.Input{
		From: fl.From, Hdr: fl.Hdr, Classes: fl.Classes, Failed: failed,
	})
	var out []*node
	for _, br := range branches {
		if len(br.Out) > 0 && fl.Hops+1 > s.opts.MaxHops {
			return nil, false, fmt.Errorf("%w at %s", ErrHopBound, nodeInfo.Name)
		}
		n := &node{boxes: cloneBoxes(cur.boxes), flights: cloneFlights(rest, len(br.Out)), sends: cur.sends, parent: cur}
		n.boxes[bi] = br.Next
		n.events = make([]logic.Event, 0, 1+len(br.Out))
		n.events = append(n.events, rcv)
		w.mon.SetState(monAfterRcv)
		branchBad := bad
		for _, o := range br.Out {
			snd := sendEvent(s.p, fl.At, o.Hdr, o.Classes)
			if w.mon.Step(snd) {
				branchBad = true
			}
			n.events = append(n.events, snd)
			to, fok, err := s.p.TF.Next(fl.At, o.Hdr.RouteAddr())
			if err != nil {
				return nil, false, err
			}
			if fok {
				n.flights = append(n.flights, flight{Hdr: o.Hdr, Classes: o.Classes, From: fl.At, At: to, Hops: fl.Hops + 1})
			}
		}
		n.mon = w.mon.State()
		if branchBad {
			return []*node{n}, true, nil
		}
		out = append(out, n)
	}
	return out, false, nil
}

// collectTrace walks parent pointers and concatenates transition events.
func collectTrace(n *node) []logic.Event {
	var rev []*node
	for cur := n; cur != nil; cur = cur.parent {
		rev = append(rev, cur)
	}
	var out []logic.Event
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i].events...)
	}
	return out
}
