package incr

import (
	"github.com/netverify/vmn/internal/lru"
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
		if containsNode(s.table.recs[sl].entry.touched, n) {
			count++
		}
	}
	return count
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
	return s.unsatTally(), unsatCounts(s.assemble(s.effectiveScenarios()))
}
