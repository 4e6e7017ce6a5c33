package incr

import (
	"fmt"
	"maps"
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
	sigs := make([]string, len(s.invs))
	for i, m := range s.invs {
		sigs[i] = m.sig
	}
	return sigs
}

// RegroupWork is how many signatures regroup has computed and how many
// group records it has rebuilt or created, over the session's lifetime.
func (s *Session) RegroupWork() (signed, rewritten int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.signed, s.rewritten
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

// GroupMembers maps each group key to its members' names, in order.
func (s *Session) GroupMembers() map[string][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.groupMembers()
}

// PendingGroupMembers is GroupMembers of the pending proposal's shadow.
func (s *Session) PendingGroupMembers() (out map[string][]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending != nil {
		s.inPending(func() { out = s.groupMembers() })
	}
	return out
}

func (s *Session) groupMembers() map[string][]string {
	out := make(map[string][]string, len(s.table.order))
	for _, sl := range s.table.order {
		r := &s.table.recs[sl]
		for _, m := range r.members {
			out[r.key] = append(out[r.key], m.inv.Name())
		}
	}
	return out
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
// the pending shadow's when a Propose is pending, is the one computed from
// scratch — symmetry.Groups over signatures computed from scratch — with
// the same order, members and keys, every cached signature is the one
// computed from scratch, and so is the node index.
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
	cls := s.classifier()
	sigs := make([]string, len(s.invs))
	for i, m := range s.invs {
		sigs[i] = cls.Signature(m.inv)
		if m.sig != sigs[i] {
			return fmt.Errorf("invariant %s: cached signature %q, from scratch %q", m.inv.Name(), m.sig, sigs[i])
		}
	}
	if err := s.indexAgrees(); err != nil {
		return err
	}
	return tableAgrees(s.table, s.invs, sigs)
}

// indexAgrees checks byNode against the index built from the invariant
// list: per node, the invariants naming it, in list order.
func (s *Session) indexAgrees() error {
	want := map[topo.NodeID][]*member{}
	add := func(n topo.NodeID, m *member) {
		if l := want[n]; len(l) == 0 || l[len(l)-1] != m {
			want[n] = append(l, m)
		}
	}
	for _, m := range s.invs {
		for _, n := range m.inv.Nodes() {
			add(n, m)
		}
		for _, a := range m.inv.RefAddrs() {
			if h, ok := s.net.Topo.HostByAddr(a); ok {
				add(h.ID, m)
			}
		}
	}
	if !maps.EqualFunc(want, s.byNode, slices.Equal) {
		return fmt.Errorf("the node index lists %d nodes, from scratch %d, or their invariants differ", len(s.byNode), len(want))
	}
	return nil
}

// tableAgrees checks t against the partition of invs computed from scratch
// under sigs (position-aligned): report order, member order, keys and
// representatives, and that every member is in the record its signature
// names.
func tableAgrees(t *groupTable, invs []*member, sigs []string) error {
	plain := make([]inv.Invariant, len(invs))
	for i, m := range invs {
		plain[i] = m.inv
	}
	want := symmetry.Groups(sigs, plain)
	if len(want) != len(t.order) {
		return fmt.Errorf("%d groups, from scratch %d", len(t.order), len(want))
	}
	name := func(a *member, b inv.Invariant) bool { return a.inv.Name() == b.Name() }
	held := 0
	for gi, sl := range t.order {
		r := &t.recs[sl]
		if r.key != want[gi].Signature || !slices.EqualFunc(r.members, want[gi].Members, name) {
			return fmt.Errorf("group %d is %q %d members, from scratch %q %d members", gi, r.key, len(r.members), want[gi].Signature, len(want[gi].Members))
		}
		if t.slotOf[r.key] != sl || r.rep != invIdentity(want[gi].Representative, want[gi].Signature) {
			return fmt.Errorf("group %d (%q): slot %d of %d, representative %q", gi, r.key, sl, t.slotOf[r.key], r.rep)
		}
		for mi, m := range r.members {
			if m.sig != r.key || (mi > 0 && m.ord <= r.members[mi-1].ord) {
				return fmt.Errorf("group %q: member %d signed %q, ord %d", r.key, mi, m.sig, m.ord)
			}
		}
		held += len(r.members)
	}
	if held != len(invs) {
		return fmt.Errorf("the groups hold %d members, the list %d", held, len(invs))
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

// ConfigHash is the fingerprint a store is opened against.
func (s *Session) ConfigHash() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.configHash()
}
