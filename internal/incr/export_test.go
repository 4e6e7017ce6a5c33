package incr

import (
	"fmt"
	"slices"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/lru"
	"github.com/netverify/vmn/internal/symmetry"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// HeldEngines exposes the per-scenario engines the session holds between
// Applys, so tests can pin which state transitions replace them.
func (s *Session) HeldEngines() []*tf.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engs
}

// Classified is how many group records markDirty has run classify on over
// the session's lifetime.
func (s *Session) Classified() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.classified
}

// GroupsReading counts, from the records, the groups whose footprint holds n.
func (s *Session) GroupsReading(n topo.NodeID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	count := 0
	for _, sl := range s.table.order {
		if slices.Contains(s.table.recs[sl].entry.touched, n) {
			count++
		}
	}
	return count
}

// Signatures returns the cached per-invariant signatures ("" = unsigned).
func (s *Session) Signatures() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.sigs)
}

// GroupKeys lists the group table's keys in report order.
func (s *Session) GroupKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.table.order))
	for _, sl := range s.table.order {
		keys = append(keys, s.table.recs[sl].key)
	}
	return keys
}

// ShrinkVerdictCache re-bounds the verdict cache to n entries, keeping the
// most recent of what it holds, so tests can put it under eviction
// pressure.
func (s *Session) ShrinkVerdictCache(n int) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	c := lru.New[string, cacheLine](n, nil)
	s.cache.Walk(func(k string, l cacheLine) bool {
		c.Put(k, l)
		return true
	})
	s.cache = c
}

// UnsatTallies returns the Propose baseline tally read off the group table
// and the one counted from the assembled report set.
func (s *Session) UnsatTallies() (table, assembled map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	assembled = map[string]int{}
	for _, r := range s.assemble(s.effectiveScenarios()) {
		if !r.Satisfied {
			assembled[checkKey(r.Invariant, r.Scenario)]++
		}
	}
	return s.unsatTally(), assembled
}

// GroupsAgree returns an error unless the group table's partition, and
// the pending shadow's when a Propose is pending, is the one
// symmetry.Groups gives from signatures computed from scratch, and every
// cached signature is the one computed from scratch.
func (s *Session) GroupsAgree() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.groupsAgree()
	if err == nil && s.pending != nil {
		s.inPending(func() { err = s.groupsAgree() })
	}
	return err
}

func (s *Session) groupsAgree() error {
	if s.needFull {
		return nil // emptied by a failed Apply: the next one regroups
	}
	cls := symmetry.Classifier{HostClass: s.net.PolicyClass, Topo: s.net.Topo}
	sigs := make([]string, len(s.invs))
	for i, iv := range s.invs {
		sigs[i] = cls.Signature(iv)
	}
	for i, sig := range s.sigs {
		if sig != "" && sig != sigs[i] {
			return fmt.Errorf("invariant %s: cached signature %q, from scratch %q", s.invs[i].Name(), sig, sigs[i])
		}
	}
	want := symmetry.Groups(sigs, s.invs)
	if len(want) != len(s.table.order) {
		return fmt.Errorf("%d groups, from scratch %d", len(s.table.order), len(want))
	}
	name := func(a, b inv.Invariant) bool { return a.Name() == b.Name() }
	for gi, sl := range s.table.order {
		g := s.table.recs[sl].group
		if g.Signature != want[gi].Signature || !slices.EqualFunc(g.Members, want[gi].Members, name) {
			return fmt.Errorf("group %d is %q %d members, from scratch %q %d members", gi, g.Signature, len(g.Members), want[gi].Signature, len(want[gi].Members))
		}
	}
	return nil
}

// AppendProposeResult is AppendResult for the pending Propose: its line is
// EncodeProposeResult's, spliced from the shadow's fragments, which Commit
// adopts and Rollback drops. buf comes back unchanged when none is pending.
func (s *Session) AppendProposeResult(buf []byte, id string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return buf
	}
	return s.appendProposeLine(buf, id)
}
