package incr

// The group table: everything the session knows about a symmetry group,
// in one record under one identity. A dense, recyclable slot names the
// group; its record holds the group itself, its key, the representative
// its entry was verified for and that entry — the representative's
// reports and the reads its slices made. Beside the records sit the report
// order and the posting lists over the session-lifetime shared atom
// universe (Delta-net style) that answer, wholesale, which groups a
// change-set can affect at all:
//
//   - nodePost: node -> sorted slots of the groups whose footprint
//     contains it. One lookup per changed element replaces the per-group
//     footprint scan: a group absent from every changed element's list
//     is clean, with no classify call at all.
//
//   - atomPost: universe atom -> sorted slots of the groups that read a
//     concrete address inside that interval at ANY node. A forwarding
//     update resolves to its dirty candidates by refining the universe
//     with the changed prefixes (splitting at most two intervals each,
//     every reader of a split interval following its reads) and unioning
//     the posting lists of the covered atoms. Groups touched by a changed
//     table but absent from every affected atom's list are refined-clean
//     by construction — the set-level prescreen, without per-group work.
//
// The table is edited in place, never rebuilt and reconciled: regroup
// retires and allocates records when the partition moves, install swaps
// one record's entry and its postings, resolve reads them. The lists
// select CANDIDATES; impact.classify remains the per-candidate precision
// check (matching-subsequence comparison, rule-read projections), so
// verdicts and the RefinedClean accounting are bit-identical to a full
// scan. The invariant, kept by install and by every split: a slot is on an
// atom's list exactly when its entry read an address inside that interval —
// so if a changed prefix covers a read, the reader's slot is on the list of
// a covering universe atom after refinement, and a route for address space
// nobody reads resolves to no candidate at all.

import (
	"slices"
	"sort"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/symmetry"
	"github.com/netverify/vmn/internal/topo"
)

// slot is a dense, recyclable index: a group's only identity in the table.
type slot = int32

// groupRecord is one group. A freed slot holds the zero record.
type groupRecord struct {
	group symmetry.Group
	key   string
	// rep identifies the representative the entry is (or will be) verified
	// for (invIdentity). A group's verdicts are its representative's: a key
	// that survives a regroup under another representative is a new record.
	rep string
	// entry is nil until the group's first verification installs one; the
	// slot is posted under entry.touched and the atoms of entry.fib.
	entry *groupEntry
	// pos is the group's position in the report order.
	pos int
	// tmpl, names and frag are the group's share of a reply (reply.go),
	// rendered when one needs it: the entry's reports without their
	// invariant, each member's quoted name, and the joined reports. A
	// shadow's clone shares them; they are never written in place.
	tmpl  *template
	names [][]byte
	frag  []byte
	// mark is resolve's scratch, zero between calls.
	mark uint8
}

// groupTable is mutated only under the session mutex and deep-copied for a
// transactional shadow.
type groupTable struct {
	recs   []groupRecord
	free   []slot
	slotOf map[string]slot
	// order is the grouping's order — core.VerifyAll's report order — as
	// slots.
	order []slot
	// unsettled holds the slots that re-verify whatever the change-set: no
	// entry yet, or one with a budget-degraded verdict. Sorted.
	unsettled []slot

	u        *topo.AtomUniverse
	nodePost map[topo.NodeID][]slot
	atomPost map[topo.AtomID][]slot
	// touched is resolve's scratch list, kept for its capacity.
	touched []slot
}

func newGroupTable() *groupTable {
	return &groupTable{
		slotOf:   map[string]slot{},
		u:        topo.NewAtomUniverse(),
		nodePost: map[topo.NodeID][]slot{},
		atomPost: map[topo.AtomID][]slot{},
	}
}

// invIdentity names an invariant by what it asserts: its slotted key (type
// tag and every node, address and prefix it names), or its name under its
// symmetry signature for a type without one. Never interface equality:
// invariants may be uncomparable types.
func invIdentity(i inv.Invariant, signature string) string {
	if si, ok := i.(inv.Slotted); ok {
		var k mbox.Key
		si.Slots(&k)
		return "k:" + string(k.B)
	}
	return "o:" + signature + "|" + i.Name()
}

// insertSlot adds s to a sorted slot list (no-op when present).
func insertSlot(list []slot, s slot) []slot {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= s })
	if i < len(list) && list[i] == s {
		return list
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = s
	return list
}

// removeSlot deletes s from a sorted slot list (no-op when absent).
func removeSlot(list []slot, s slot) []slot {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= s })
	if i >= len(list) || list[i] != s {
		return list
	}
	return append(list[:i], list[i+1:]...)
}

// setPost makes list the posting list of k; an empty list takes no key.
func setPost[K comparable](post map[K][]slot, k K, list []slot) {
	if len(list) > 0 {
		post[k] = list
	} else {
		delete(post, k)
	}
}

// regroup makes groups (keyed by keys, position-aligned) the table's
// partition, in that order: records whose key left or whose representative
// changed are retired, keys without a record get a fresh unverified one,
// every other record keeps its entry and postings.
func (t *groupTable) regroup(groups []symmetry.Group, keys []string) {
	reps := make(map[string]string, len(keys))
	for gi, key := range keys {
		reps[key] = invIdentity(groups[gi].Representative, groups[gi].Signature)
	}
	for _, s := range t.order {
		if r := &t.recs[s]; reps[r.key] != r.rep {
			t.post(s, nil)
			delete(t.slotOf, r.key)
			t.unsettled = removeSlot(t.unsettled, s)
			*r = groupRecord{}
			t.free = append(t.free, s)
		}
	}
	t.order = t.order[:0]
	for gi, key := range keys {
		s, ok := t.slotOf[key]
		if !ok {
			if n := len(t.free); n > 0 {
				s, t.free = t.free[n-1], t.free[:n-1]
			} else {
				s = slot(len(t.recs))
				t.recs = append(t.recs, groupRecord{})
			}
			t.recs[s] = groupRecord{key: key, rep: reps[key]}
			t.slotOf[key] = s
			t.unsettled = insertSlot(t.unsettled, s)
		}
		// A report carries its invariant's name: a group whose member
		// names move quotes them and joins its fragment anew.
		r := &t.recs[s]
		if !slices.EqualFunc(r.group.Members, groups[gi].Members, func(a, b inv.Invariant) bool { return a.Name() == b.Name() }) {
			r.names, r.frag = nil, nil
		}
		r.group, r.pos = groups[gi], gi
		t.order = append(t.order, s)
	}
}

// install makes e the entry of s: the reads of the entry it replaces come
// off the posting lists, e's go on.
func (t *groupTable) install(s slot, e *groupEntry) {
	t.post(s, e)
	if e.exceeded {
		t.unsettled = insertSlot(t.unsettled, s)
	} else {
		t.unsettled = removeSlot(t.unsettled, s)
	}
}

// post replaces the entry of s and its postings (e nil = none).
func (t *groupTable) post(s slot, e *groupEntry) {
	r := &t.recs[s]
	if old := r.entry; old != nil {
		for _, n := range old.touched {
			setPost(t.nodePost, n, removeSlot(t.nodePost[n], s))
		}
		for _, atoms := range old.fib {
			for _, a := range atoms {
				id := t.u.AtomOf(a)
				setPost(t.atomPost, id, removeSlot(t.atomPost[id], s))
			}
		}
	}
	r.entry = e
	if e == nil {
		return
	}
	for _, n := range e.touched {
		t.nodePost[n] = insertSlot(t.nodePost[n], s)
	}
	for _, atoms := range e.fib {
		for _, a := range atoms {
			id := t.u.AtomOf(a)
			t.atomPost[id] = insertSlot(t.atomPost[id], s)
		}
	}
}

// resolve's marks: the footprint intersects a changed element; and some
// read could be affected (node/box channel, coarse entry, or a read atom
// under a changed prefix).
const (
	markTouched uint8 = 1 << iota
	markCandidate
)

// resolve screens an impact against the posting lists: candidates are the
// settled groups that must run classify for the precise verdict and its
// provenance, refined counts those whose footprint intersects a changed
// element while no posted read can be affected — refined-clean without
// classify. Every other group is clean. It refines the shared universe by
// every changed prefix, so the per-atom lookup is exact for posted reads.
// The candidate list is valid until the next resolve.
func (t *groupTable) resolve(im *impact) (candidates []slot, refined int) {
	touched := t.touched[:0]
	mark := func(n topo.NodeID, fibOnly bool) {
		for _, s := range t.nodePost[n] {
			r := &t.recs[s]
			if r.mark == 0 {
				touched = append(touched, s)
			}
			r.mark |= markTouched
			if !fibOnly || r.entry.coarse {
				r.mark |= markCandidate
			}
		}
	}
	for n := range im.nodes {
		mark(n, false)
	}
	for n := range im.boxes {
		mark(n, false)
	}
	for n := range im.fib {
		mark(n, true)
	}
	onSplit := func(sp topo.AtomSplit) {
		// Parent kept the lower half of its interval, Child is the upper:
		// each reader goes where its reads are.
		lower, upper := t.atomPost[sp.Parent][:0], []slot(nil)
		for _, s := range t.atomPost[sp.Parent] {
			var lo, hi bool
			for _, atoms := range t.recs[s].entry.fib {
				for _, a := range atoms {
					id := t.u.AtomOf(a)
					lo, hi = lo || id == sp.Parent, hi || id == sp.Child
				}
			}
			if lo {
				lower = append(lower, s)
			}
			if hi {
				upper = append(upper, s)
			}
		}
		setPost(t.atomPost, sp.Parent, lower)
		setPost(t.atomPost, sp.Child, upper)
	}
	var ids []topo.AtomID
	for _, deltas := range im.fib {
		for _, d := range deltas {
			for _, pfx := range d.changed {
				t.u.RefinePrefix(pfx, onSplit)
				ids = t.u.AtomsOfPrefix(pfx, ids[:0])
				for _, id := range ids {
					for _, s := range t.atomPost[id] {
						if r := &t.recs[s]; r.mark != 0 {
							r.mark |= markCandidate
						}
					}
				}
			}
		}
	}
	candidates = touched[:0]
	for _, s := range touched {
		r := &t.recs[s]
		switch {
		case r.entry.exceeded: // unsettled: re-verifies regardless
		case r.mark&markCandidate != 0:
			candidates = append(candidates, s)
		default:
			refined++
		}
		r.mark = 0
	}
	t.touched = touched[:0]
	return candidates, refined
}

// postings counts the slots held across all node and atom posting lists.
func (t *groupTable) postings() int {
	n := 0
	for _, list := range t.nodePost {
		n += len(list)
	}
	for _, list := range t.atomPost {
		n += len(list)
	}
	return n
}

// clone deep-copies the table for a transactional shadow run: the shadow
// regroups, installs and refines the universe without the base ever
// observing it. Entries and groups are immutable and shared.
func (t *groupTable) clone() *groupTable {
	c := &groupTable{
		recs:      append([]groupRecord(nil), t.recs...),
		free:      append([]slot(nil), t.free...),
		slotOf:    make(map[string]slot, len(t.slotOf)),
		order:     append([]slot(nil), t.order...),
		unsettled: append([]slot(nil), t.unsettled...),
		u:         t.u.Clone(),
		nodePost:  make(map[topo.NodeID][]slot, len(t.nodePost)),
		atomPost:  make(map[topo.AtomID][]slot, len(t.atomPost)),
	}
	for k, s := range t.slotOf {
		c.slotOf[k] = s
	}
	for n, list := range t.nodePost {
		c.nodePost[n] = append([]slot(nil), list...)
	}
	for id, list := range t.atomPost {
		c.atomPost[id] = append([]slot(nil), list...)
	}
	return c
}
