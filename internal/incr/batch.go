package incr

// Change-set batching and coalescing. A batch of N updates often nets
// out to much less work than N applies: repeated updates to the same
// table collapse to one old-vs-final diff, an add followed by a delete
// of the same rule annihilates (the final table equals the old one, so
// nothing is dirtied), and repeated liveness/relabel toggles of one
// element keep only the last writer. Coalescing is sound because Apply
// verifies the network's FINAL state: any two change lists that mutate
// the session to the same final state produce bit-identical verdicts
// and witnesses (Apply ≡ VerifyAll over the final network either way);
// coalescing only ever drops changes whose effect the surviving changes
// subsume, so dirtying stays a superset of what the final diff needs.
//
// The rules, per kind:
//
//   - NodeDown/NodeUp: last writer wins per node. Apply's toggle check
//     makes an annihilated pair (down then up of an up node) a no-op.
//   - FIB: last writer wins across the set — the last provider IS the
//     final forwarding state (providers are whole-FIB functions).
//     Diffing is per-table against the final provider, so cross-table
//     updates in one batch still dirty each table independently —
//     coalescing never merges diffs across tables, it only removes
//     superseded providers.
//   - BoxSwap (a bind) drops the node's open bind and opens its own,
//     unless the node holds no model at that point: such a first bind
//     goes last in the box list and keeps its place, opening nothing, so
//     a later unbind still has a model to unbind. bound says which nodes
//     hold one before the list; the list tells the rest.
//   - BoxRemove (the unbind) drops the node's open bind: the box is gone
//     whatever it was last configured as.
//   - Relabel: last writer wins per node.
//   - InvRemove drops every earlier InvAdd/InvRemove of its name: it
//     removes all invariants so named, whichever change put them there.
//   - InvAdd: never coalesced — its validation and ordering semantics are
//     order-sensitive.
//
// Survivors keep their relative order (by the index of the retained
// occurrence), so order-sensitive kinds interleave exactly as given.

import (
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/topo"
)

// Coalesce reduces a change list to an equivalent one (same final
// session state, hence identical verdicts), returning the survivors and,
// for each, its index in changes. bound reports whether a node holds a
// model before the list applies.
func Coalesce(changes []Change, bound func(topo.NodeID) bool) (out []Change, from []int) {
	keep := make([]bool, len(changes))
	for i := range keep {
		keep[i] = true
	}
	drop := func(last map[topo.NodeID]int, n topo.NodeID) {
		if j, ok := last[n]; ok {
			keep[j] = false
			delete(last, n)
		}
	}

	lastLive := map[topo.NodeID]int{}
	lastRelab := map[topo.NodeID]int{}
	// open is each node's open bind; held, whether a node the list has
	// touched holds a model at this point.
	open := map[topo.NodeID]int{}
	held := map[topo.NodeID]bool{}
	lastFIB := -1
	// invOps lists, per invariant name, the surviving adds and removes.
	invOps := map[string][]int{}
	for i, ch := range changes {
		switch ch.Kind {
		case KindNodeDown, KindNodeUp:
			drop(lastLive, ch.Node)
			lastLive[ch.Node] = i
		case KindRelabel:
			drop(lastRelab, ch.Node)
			lastRelab[ch.Node] = i
		case KindFIB:
			if lastFIB >= 0 {
				keep[lastFIB] = false
			}
			lastFIB = i
		case KindBoxReconfig:
			drop(open, ch.Node)
			if h, seen := held[ch.Node]; h || !seen && bound(ch.Node) {
				open[ch.Node] = i
			}
			held[ch.Node] = true
		case KindBoxRemove:
			drop(open, ch.Node)
			held[ch.Node] = false
		case KindInvAdd:
			if ch.Invariant != nil { // validate refuses a nil one
				invOps[ch.Invariant.Name()] = append(invOps[ch.Invariant.Name()], i)
			}
		case KindInvRemove:
			for _, j := range invOps[ch.Name] {
				keep[j] = false
			}
			invOps[ch.Name] = append(invOps[ch.Name][:0], i)
		}
	}

	for i, ch := range changes {
		if keep[i] {
			out = append(out, ch)
			from = append(from, i)
		}
	}
	return out, from
}

// ApplyBatch coalesces a batch of changes and applies the survivors as
// one atomic change-set. Verdicts and witnesses at the batch boundary
// are bit-identical to applying the batch one change at a time (both
// equal a from-scratch VerifyAll over the final network); what batching
// buys is one dirty-resolution and one re-verification for the whole
// batch instead of per change. The returned stats (LastApply) carry the
// raw and eliminated change counts.
func (s *Session) ApplyBatch(changes []Change) ([]core.Report, error) {
	reports, _, err := s.ApplyBatchID("", changes)
	return reports, err
}

// ApplyBatchID is ApplyBatch with a client request id (see ApplyID):
// duplicates are not re-applied, and with persistence enabled the
// COALESCED change-set is journaled before the call returns (the
// survivors are what mutated the network, and replaying them is
// verdict-identical to replaying the raw batch).
func (s *Session) ApplyBatchID(id string, changes []Change) (_ []core.Report, duplicate bool, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reportsAfter(s.applyRequest(id, changes, true))
}

// applyBatchLocked is ApplyBatchID's body past the request prologue.
func (s *Session) applyBatchLocked(id string, changes []Change) error {
	co, from := Coalesce(changes, func(n topo.NodeID) bool { return findBox(s.net, n) >= 0 })
	if _, err := s.transact(false, func() error { return s.applyLocked(co) }); err != nil {
		return err
	}
	// Explain names the dirtying change by its place in the request.
	for i := range s.lastExplain {
		if c := &s.lastExplain[i].Cause; c.Change >= 0 {
			c.Change = from[c.Change]
		}
	}
	s.persistApply(id, co)
	dropped := len(changes) - len(co)
	s.last.Enqueued = len(changes)
	s.last.Coalesced = dropped
	s.totals.Batches++
	s.totals.Enqueued += len(changes)
	s.totals.Coalesced += dropped
	if m := s.metrics; m != nil {
		m.batches.Inc()
		m.enqueued.Add(int64(len(changes)))
		m.coalesced.Add(int64(dropped))
		m.batchSize.Observe(float64(len(changes)))
	}
	return nil
}
