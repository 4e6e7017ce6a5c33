package incr

// The group table: everything the session knows about a symmetry group,
// in one record under one identity. A dense, recyclable slot names the
// group; its record holds the group itself, its key, the representative
// its entry was verified for and that entry — the representative's
// reports and the reads its slices made. Beside the records sit the report
// order and one posting list per node, nodePost: node -> sorted slots of
// the groups whose footprint contains it. One lookup per changed element
// replaces the per-group footprint scan: a group absent from every
// changed element's list is clean, with no classify call at all.
//
// A changed forwarding table n screens the groups on nodePost[n] by their
// own reads: a group is a candidate when its entry is coarse or when the
// addresses it read at n (entry.fib[n]) meet a prefix one of n's deltas
// names — the set-level prescreen fibDelta.dirtyAtom opens with. Every
// other group on the list is refined-clean without classify.
//
// The table is edited in place, never rebuilt and reconciled: regroup
// retires and allocates records when the partition moves, install swaps
// one record's entry and its postings, resolve reads them. The lists
// select CANDIDATES; impact.classify remains the per-candidate precision
// check (matching-subsequence comparison, rule-read projections), so
// verdicts and the RefinedClean accounting are bit-identical to a full
// scan. The invariant, kept by install: a slot is on a node's list exactly
// when that node is in its entry's footprint.

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
	// slot is posted under entry.touched.
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

	nodePost map[topo.NodeID][]slot
	// touched is resolve's scratch list, kept for its capacity.
	touched []slot
}

func newGroupTable() *groupTable {
	return &groupTable{
		slotOf:   map[string]slot{},
		nodePost: map[topo.NodeID][]slot{},
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
			if list := removeSlot(t.nodePost[n], s); len(list) > 0 {
				t.nodePost[n] = list
			} else {
				delete(t.nodePost, n)
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
}

// resolve's marks: the footprint intersects a changed element; and some
// read could be affected (node/box channel, coarse entry, or a read at a
// changed table under one of its changed prefixes).
const (
	markTouched uint8 = 1 << iota
	markCandidate
)

// resolve screens an impact against the posting lists: candidates are the
// settled groups that must run classify for the precise verdict and its
// provenance, refined counts those whose footprint intersects a changed
// element while no read can be affected — refined-clean without classify.
// Every other group is clean. The candidate list is valid until the next
// resolve.
func (t *groupTable) resolve(im *impact) (candidates []slot, refined int) {
	touched := t.touched[:0]
	// mark takes n's readers; with deltas nil (the node and box channels)
	// every one of them is a candidate.
	mark := func(n topo.NodeID, deltas []*fibDelta) {
		for _, s := range t.nodePost[n] {
			r := &t.recs[s]
			if r.mark == 0 {
				touched = append(touched, s)
			}
			r.mark |= markTouched
			if r.mark&markCandidate == 0 && (deltas == nil || r.entry.coarse || readsChanged(r.entry.fib[n], deltas)) {
				r.mark |= markCandidate
			}
		}
	}
	for n := range im.nodes {
		mark(n, nil)
	}
	for n := range im.boxes {
		mark(n, nil)
	}
	for n, deltas := range im.fib {
		mark(n, deltas)
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

// postings counts the slots held across all posting lists.
func (t *groupTable) postings() int {
	n := 0
	for _, list := range t.nodePost {
		n += len(list)
	}
	return n
}

// clone deep-copies the table for a transactional shadow run: the shadow
// regroups and installs without the base ever observing it. Entries and
// groups are immutable and shared.
func (t *groupTable) clone() *groupTable {
	c := &groupTable{
		recs:      append([]groupRecord(nil), t.recs...),
		free:      append([]slot(nil), t.free...),
		slotOf:    make(map[string]slot, len(t.slotOf)),
		order:     append([]slot(nil), t.order...),
		unsettled: append([]slot(nil), t.unsettled...),
		nodePost:  make(map[topo.NodeID][]slot, len(t.nodePost)),
	}
	for k, s := range t.slotOf {
		c.slotOf[k] = s
	}
	for n, list := range t.nodePost {
		c.nodePost[n] = append([]slot(nil), list...)
	}
	return c
}
