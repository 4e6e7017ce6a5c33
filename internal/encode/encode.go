// Package encode is VMN's SAT-based verification engine — the analogue of
// the paper's Z3 pipeline. It grounds the middlebox and network axioms of
// §3.4–§3.5 over a bounded schedule into a propositional formula
// (internal/smt → internal/sat) whose satisfying assignments are violating
// schedules, exactly mirroring the paper's "satisfying assignment ⇔
// invariant violated" setup.
//
// # Encoding
//
// A schedule is K macro-steps. At each step the scheduling oracle either
// does nothing or picks one alphabet packet with one oracle class
// assignment; the packet's complete journey through the static fabric and
// the middleboxes happens within the step (journeys are enumerated by
// symbolic execution, forking on every middlebox state bit read, once per
// sample: the class assignment labels a sample's journeys unless a box on
// them reads it, and only then is each assignment walked). Middlebox
// state — which for every model the paper evaluates is a monotone set of
// keys (established flows, cached objects, prefixes under attack) — becomes
// one SAT variable per (box, key, step), with frame axioms
//
//	S[b,k,t+1] ↔ S[b,k,t] ∨ ⋁ (selector ∧ path-condition) over paths setting k.
//
// The invariant's past-time LTL "bad" formula is grounded over steps by
// internal/logic.Ground; each atom at step t becomes the disjunction of the
// guards of matching journey events. Asserting ⋁_t bad[t] and solving
// yields either a violating schedule (model) or a bounded proof (UNSAT).
//
// What is grounded when: building an encoding enumerates the journeys,
// nothing more. Each invariant then grounds its cone of influence: the
// guards of the paths its atoms match, the state bits those guards read,
// each such bit's boot unit and frame axioms, and the guards of the paths
// setting it, to a fixpoint, with a selector per step for each choice
// those paths belong to. What is left out would only define variables no
// asserted clause mentions, and a choice left out acts as doing nothing,
// so verdicts and witnesses are those of the full encoding, which
// GroundAllReadKeys (the whole-network baseline) grounds up front.
//
// Serializing each packet's journey within its step is an abstraction: the
// explicit engine (internal/explore) additionally interleaves partial
// deliveries. For flow-parallel and origin-agnostic middleboxes with
// monotone state the two are equivalence-checked by cross-engine property
// tests.
package encode

import (
	"fmt"
	"slices"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// Options tune the solver-backed engine.
type Options struct {
	// MaxConflicts bounds solver work (0 = unlimited); exceeding it yields
	// Unknown, the analogue of an SMT timeout.
	MaxConflicts int64
	// GroundAllReadKeys grounds the state axioms of every middlebox for
	// every alphabet packet when the encoding is built, even state no
	// journey or invariant touches. This is the whole-network baseline of
	// Figs. 7–9: like handing Z3 the axioms of the entire network, formula
	// size grows with network size instead of with the invariant's cone.
	GroundAllReadKeys bool
	// Journeys, when non-nil, memoizes journey enumeration across Verify
	// calls over one frozen network (see JourneyCache).
	Journeys *JourneyCache
}

// keyRef names one middlebox state bit.
type keyRef struct {
	box int
	key string
}

// keyCond is a path condition on a state bit at the step's start.
type keyCond struct {
	ref keyRef
	val bool
}

// jpath is one fully resolved journey of a packet choice: the state bits it
// assumed, the bits it sets, and the trace events it produces.
type jpath struct {
	conds  []keyCond
	sets   []keyRef
	events []logic.Event
}

// choice is one (sample, class assignment) pair. When shared, its paths
// are the sample's journeys under its first class assignment, which every
// assignment's choice holds, and event labels them with classes.
type choice struct {
	sample  inv.Sample
	classes pkt.ClassSet
	paths   []jpath
	shared  bool
}

// event returns ev as c's journeys produce it: stamped with c's classes
// when the journeys are shared.
func (c *choice) event(ev logic.Event) logic.Event {
	if c.shared {
		ev.Classes = c.classes
	}
	return ev
}

// Verify encodes and solves the bounded verification problem on a fresh
// encoding. Callers checking many invariants over one slice should build a
// SliceEncoding once (or go through core.Verifier, which caches them) and
// call its Verify per invariant instead — verdicts and traces are
// identical either way, witness extraction being canonical.
func Verify(p *inv.Problem, opts Options) (inv.Result, error) {
	enc, err := NewSliceEncoding(p, opts)
	if err != nil {
		return inv.Result{}, err
	}
	return enc.Verify(p, opts)
}

// journeys symbolically executes the packet's journey under classes cls,
// forking on state reads, and returns all resolved paths. shared reports
// that under each of alts the journeys are the same, their events labelled
// alt: every output passes its input's classes through, and every box
// whose relevant classes (rel, by box index) tell alt from cls answers
// alike under alt (sameAnswer). A box that declares every class it reads
// (mbox.Model) needs no check where its relevant classes agree.
//
// A partial path carries no per-hop maps: the state bits it assumed are
// exactly those its conds name, and the bits it derived are exactly those
// its sets name, so both are short slice scans. Between forks a path is
// the only writer of its queue, conds, sets and events, so they grow by
// append in place; at a fork every branch gets capacity-limited slices, so
// its first append copies instead of overwriting a sibling's. A finished
// path keeps the arrays it grew, which no one writes again.
func journeys(p *inv.Problem, boxIdx map[topo.NodeID]int, rel []pkt.ClassSet, s inv.Sample, cls pkt.ClassSet, alts []pkt.ClassSet) (out []jpath, shared bool, err error) {
	type flight struct {
		Hdr     pkt.Header
		Classes pkt.ClassSet
		From    topo.NodeID
		At      topo.NodeID
		Hops    int
	}
	dstOf := func(h pkt.Header) topo.NodeID {
		if n, ok := p.Topo.HostByAddr(h.Dst); ok {
			return n.ID
		}
		return topo.NodeNone
	}
	sendEv := logic.Event{Kind: logic.EvSend, Src: s.Sender, Dst: dstOf(s.Hdr), Hdr: s.Hdr, Classes: cls}

	shared = true
	var rec func(queue []flight, conds []keyCond, sets []keyRef, events []logic.Event) error
	rec = func(queue []flight, conds []keyCond, sets []keyRef, events []logic.Event) error {
		if len(queue) == 0 {
			out = append(out, jpath{conds: conds, sets: sets, events: events})
			return nil
		}
		fl := queue[0]
		rest := queue[1:]
		node := p.Topo.Node(fl.At)

		if node.Kind == topo.Host || node.Kind == topo.External {
			rcv := logic.Event{Kind: logic.EvRecv, Dst: fl.At, Src: fl.From, Hdr: fl.Hdr, Classes: fl.Classes}
			return rec(rest, conds, sets, append(events, rcv))
		}
		if node.Kind != topo.Middlebox {
			return fmt.Errorf("encode: packet surfaced at switch %s", node.Name)
		}
		bi, ok := boxIdx[fl.At]
		if !ok {
			return fmt.Errorf("encode: no model bound to middlebox %s", node.Name)
		}
		model := p.Boxes[bi].Model
		failed := p.Scenario.Failed(fl.At)

		forwardTo := func(hdr pkt.Header, classes pkt.ClassSet, hops int, q []flight) ([]flight, error) {
			if hops > inv.MaxHops {
				return nil, fmt.Errorf("encode: middlebox hop bound exceeded at %s", node.Name)
			}
			to, fok, err := p.TF.Next(fl.At, hdr.RouteAddr())
			if err != nil {
				return nil, err
			}
			if fok {
				q = append(q, flight{Hdr: hdr, Classes: classes, From: fl.At, At: to, Hops: hops})
			}
			return q, nil
		}

		if failed && model.FailMode() == mbox.FailClosed {
			return rec(rest, conds, sets, events)
		}
		if failed && model.FailMode() == mbox.FailOpen {
			q, err := forwardTo(fl.Hdr, fl.Classes, fl.Hops+1, rest)
			if err != nil {
				return err
			}
			return rec(q, conds, sets, events)
		}

		// Healthy (or fail-explicit) processing.
		input := mbox.Input{From: fl.From, Hdr: fl.Hdr, Classes: fl.Classes, Failed: failed}
		reader, _ := model.(mbox.KeyReader)
		var reads []string
		if reader != nil {
			reads = reader.ReadKeys(input)
		} else if keys, _ := mbox.SetStateKeys(model.InitState()); len(keys) > 0 {
			return fmt.Errorf("encode: middlebox %s has state but no KeyReader", node.Name)
		}

		// Resolve unknown read bits by forking.
		var unknown []keyRef
		for _, k := range reads {
			r := keyRef{bi, k}
			if !slices.ContainsFunc(conds, func(c keyCond) bool { return c.ref == r }) && !slices.Contains(sets, r) {
				unknown = append(unknown, r)
			}
		}

		runWith := func(conds []keyCond, queue []flight, sets []keyRef, events []logic.Event) error {
			// Construct the box state visible to this packet: every key of
			// this box known true (assumed or derived).
			var trueKeys []string
			for _, c := range conds {
				if c.val && c.ref.box == bi {
					trueKeys = append(trueKeys, c.ref.key)
				}
			}
			for _, r := range sets {
				if r.box == bi {
					trueKeys = append(trueKeys, r.key)
				}
			}
			st := mbox.SetStateWith(trueKeys...)
			branches := model.Process(st, input)
			if len(branches) != 1 {
				return fmt.Errorf("encode: middlebox %s is nondeterministic (%d branches); use the explicit engine",
					node.Name, len(branches))
			}
			br := branches[0]
			for _, alt := range alts {
				if shared && (alt^cls)&rel[bi] != 0 && !sameAnswer(model, st, input, reads, br, alt) {
					shared = false
				}
			}
			newKeys, ok := mbox.SetStateKeys(br.Next)
			if !ok {
				return fmt.Errorf("encode: middlebox %s produced non-boolean state", node.Name)
			}
			// Diff: keys now true that were not before.
			for _, k := range newKeys {
				if !slices.Contains(trueKeys, k) {
					sets = append(sets, keyRef{bi, k})
				}
			}
			events = append(events, logic.Event{Kind: logic.EvRecv, Dst: fl.At, Src: fl.From, Hdr: fl.Hdr, Classes: fl.Classes})
			for _, o := range br.Out {
				shared = shared && o.Classes == fl.Classes
				events = append(events, logic.Event{Kind: logic.EvSend, Src: fl.At, Dst: dstOf(o.Hdr), Hdr: o.Hdr, Classes: o.Classes})
				var err error
				queue, err = forwardTo(o.Hdr, o.Classes, fl.Hops+1, queue)
				if err != nil {
					return err
				}
			}
			return rec(queue, conds, sets, events)
		}

		// Enumerate assignments over the unknown bits (2^|unknown|, with
		// |unknown| ≤ 1 for all shipped models).
		n := len(unknown)
		if n == 0 {
			return runWith(conds, rest, sets, events)
		}
		for m := 0; m < 1<<uint(n); m++ {
			forkConds := conds[:len(conds):len(conds)]
			for i, r := range unknown {
				forkConds = append(forkConds, keyCond{ref: r, val: m>>uint(i)&1 == 1})
			}
			if err := runWith(forkConds, rest[:len(rest):len(rest)], sets[:len(sets):len(sets)], events[:len(events):len(events)]); err != nil {
				return err
			}
		}
		return nil
	}

	// Kick off: the send event plus the first fabric hop.
	var queue []flight
	to, ok, err := p.TF.Next(s.Sender, s.Hdr.RouteAddr())
	if err != nil {
		return nil, false, err
	}
	if ok {
		queue = append(queue, flight{Hdr: s.Hdr, Classes: cls, From: s.Sender, At: to})
	}
	if err := rec(queue, nil, nil, []logic.Event{sendEv}); err != nil {
		return nil, false, err
	}
	return out, shared, nil
}

// sameAnswer reports whether model, given input in in state st, reads the
// same keys and takes the same branch br under classes alt, its outputs
// carrying alt.
func sameAnswer(model mbox.Model, st mbox.State, in mbox.Input, reads []string, br mbox.Branch, alt pkt.ClassSet) bool {
	in.Classes = alt
	if reader, ok := model.(mbox.KeyReader); ok && !slices.Equal(reader.ReadKeys(in), reads) {
		return false
	}
	branches := model.Process(st, in)
	if len(branches) != 1 {
		return false
	}
	next, _ := mbox.SetStateKeys(br.Next)
	altNext, _ := mbox.SetStateKeys(branches[0].Next)
	return slices.Equal(next, altNext) && slices.EqualFunc(br.Out, branches[0].Out, func(o, a mbox.Output) bool {
		return o.Hdr == a.Hdr && a.Classes == alt
	})
}
