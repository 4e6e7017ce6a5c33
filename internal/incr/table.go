package incr

// The group table: everything the session knows about a symmetry group,
// in one record under one identity. A dense, recyclable slot names the
// group; its record holds the group's members, its key, the representative
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
// moves the invariants a change-set re-signed, added or removed between
// records, touching only the records they leave and enter, install swaps
// one record's entry and its postings, resolve reads them. Every edit goes
// through set or setEntry, on the run's trail (txn.go): a record field, a
// map entry or a list header. A list is replaced, never written in place,
// since a trail may hold its old header; the records grow only by zero
// records, which is what every trail expects past their length. The lists
// select CANDIDATES; impact.classify remains the per-candidate precision
// check (matching-subsequence comparison, rule-read projections), so
// verdicts and the RefinedClean accounting are bit-identical to a full
// scan. The invariant, kept by install: a slot is on a node's list exactly
// when that node is in its entry's footprint.

import (
	"cmp"
	"slices"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/symmetry"
	"github.com/netverify/vmn/internal/topo"
)

// slot is a dense, recyclable index: a group's only identity in the table.
type slot = int32

// groupRecord is one group. A freed slot holds the zero record.
type groupRecord struct {
	// members are the group's invariants in list order; members[0] is the
	// representative. Rebuilt, never written in place.
	members []*member
	key     string
	// rep identifies the representative the entry is (or will be) verified
	// for (invIdentity). A group's verdicts are its representative's: a key
	// that survives a regroup under another representative is a new record.
	rep string
	// entry is nil until the group's first verification installs one; the
	// slot is posted under entry.touched.
	entry *groupEntry
	// tmpl and frag are the group's share of a reply (reply.go), rendered
	// when one needs it: the entry's reports without their invariant, and
	// the reports joined with the members' quoted names (empty when stale;
	// the buffer is kept for the next join). A pending shadow's trail may
	// hold a frag: its bytes are written over only when none is pending.
	tmpl *template
	frag []byte
	// mark is resolve's scratch, zero between calls.
	mark uint8
}

// groupTable is mutated only under the session mutex.
type groupTable struct {
	recs   []groupRecord
	free   []slot
	slotOf map[string]slot
	// order is the report order — core.VerifyAll's: the representatives'
	// list order — as slots.
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

// withSlot returns the sorted slot list with s in it when in, without it
// otherwise, and whether that changed it. A changed list is a fresh one
// when a trail is armed (it may hold the old one), and list edited in place
// when none is: a needFull run posts every group, and a list then grows by
// appends.
func withSlot(tr *trail, list []slot, s slot, in bool) ([]slot, bool) {
	i, found := slices.BinarySearch(list, s)
	switch {
	case found == in:
		return list, false
	case tr == nil && in:
		return slices.Insert(list, i, s), true
	case tr == nil:
		return slices.Delete(list, i, i+1), true
	case in:
		return slices.Concat(list[:i], []slot{s}, list[i:]), true
	default:
		return slices.Concat(list[:i], list[i+1:]), true
	}
}

// member is one invariant of the session as the group table holds it. The
// session's list and the records share it: sig is written only through
// set, name is a cache filled once.
type member struct {
	inv inv.Invariant
	// ord is the invariant's place in list order: increasing along the
	// list, never reused, so comparing ords compares positions.
	ord uint64
	// sig is the invariant's signature ("" until first signed), and so the
	// key of the group it is in.
	sig string
	// name is `{"invariant":<quoted name>`, rendered on a reply's first
	// need (reply.go).
	name []byte
}

// partitionDelta is what a change-set moved among the symmetry partition's
// inputs: the nodes it relabeled, the invariants it added, and those it
// removed that were there before it.
type partitionDelta struct {
	relabeled      []topo.NodeID
	added, removed []*member
}

// remove records m's removal; one the change-set added leaves no trace.
func (pd *partitionDelta) remove(m *member) {
	if i := slices.Index(pd.added, m); i >= 0 {
		pd.added = slices.Delete(pd.added, i, i+1)
	} else {
		pd.removed = append(pd.removed, m)
	}
}

// regroup brings the group table's partition up to date with pd: it signs
// the invariants that arrived, re-signs those a relabel can move — the ones
// byNode lists under a relabeled node — and moves each whose signature, its
// group key, changed. On a needFull run the table is empty, byNode is built
// from the list, and every invariant is signed and arrives: the same path.
func (s *Session) regroup(pd *partitionDelta) {
	arrivals, departures := pd.added, pd.removed
	var resign []*member
	if s.needFull {
		arrivals, departures = s.invs, nil
		byNode := make(map[topo.NodeID][]*member, len(s.invs))
		for _, m := range s.invs {
			s.named(m, func(n topo.NodeID) {
				if list := byNode[n]; len(list) == 0 || list[len(list)-1] != m { // named twice
					byNode[n] = append(list, m)
				}
			})
		}
		set(s.trail, &s.byNode, byNode)
	} else {
		for _, n := range pd.relabeled {
			for _, m := range s.byNode[n] {
				if m.sig != "" { // an arrival is signed below
					resign = append(resign, m)
				}
			}
		}
		resign = slices.Compact(sortedByOrd(resign))
	}
	cls := s.classifier()
	sign := func(m *member) (was, sig string) {
		s.signed++
		if was, sig = m.sig, cls.Signature(m.inv); sig != was {
			set(s.trail, &m.sig, sig)
		}
		return was, sig
	}
	var moves []move
	for _, m := range resign {
		if was, sig := sign(m); sig != was {
			moves = append(moves, move{m, was, sig})
		}
	}
	for _, m := range arrivals {
		_, sig := sign(m)
		moves = append(moves, move{m, "", sig})
	}
	for _, m := range departures {
		moves = append(moves, move{m, m.sig, ""})
	}
	s.rewritten += s.table.regroup(s.trail, moves)
}

// classifier signs the session's invariants: by their nodes' policy
// classes, or without symmetry by none, so that every node is a class of
// its own and only invariants that assert the same thing share a group.
func (s *Session) classifier() symmetry.Classifier {
	cls := symmetry.Classifier{Topo: s.net.Topo}
	if !s.sopts.NoSymmetry {
		cls.HostClass = s.net.PolicyClass
	}
	return cls
}

// index puts m on the byNode lists of the nodes it names, or takes it off
// them when remove. A list is replaced, never written in place: a trail may
// hold the old one.
func (s *Session) index(m *member, remove bool) {
	s.named(m, func(n topo.NodeID) {
		list := s.byNode[n]
		switch {
		case remove:
			list = slices.DeleteFunc(slices.Clone(list), func(x *member) bool { return x == m })
		case len(list) > 0 && list[len(list)-1] == m:
			return // named twice
		default:
			list = append(list[:len(list):len(list)], m)
		}
		setEntry(s.trail, s.byNode, n, list, len(list) > 0)
	})
}

// named calls at on each node m names, itself or through an address the
// node owns, in order: a node may come twice in a row.
func (s *Session) named(m *member, at func(topo.NodeID)) {
	for _, n := range m.inv.Nodes() {
		at(n)
	}
	for _, a := range m.inv.RefAddrs() {
		if h, ok := s.net.Topo.HostByAddr(a); ok {
			at(h.ID)
		}
	}
}

// move is one member changing group: out of the record keyed from ("" = it
// enters the partition) into the one keyed to ("" = it leaves).
type move struct {
	m        *member
	from, to string
}

// regroup applies moves to the table's partition, on tr. Only the records a
// move names are touched: each gets its members rebuilt in ord order, and a
// record whose representative's identity changed, or that emptied, is
// retired (a key that survives under another representative is a new
// record). Records keep the report order, which is their representatives'
// list order. It returns how many records it rebuilt or created.
func (t *groupTable) regroup(tr *trail, moves []move) (rewritten int) {
	type edit struct{ out, in []*member }
	edits, keys := map[string]*edit{}, []string(nil)
	at := func(k string) *edit {
		e := edits[k]
		if e == nil {
			e = &edit{}
			edits[k] = e
			keys = append(keys, k)
		}
		return e
	}
	for _, mv := range moves {
		if mv.from != "" {
			at(mv.from).out = append(at(mv.from).out, mv.m)
		}
		if mv.to != "" {
			at(mv.to).in = append(at(mv.to).in, mv.m)
		}
	}
	var drop, add []slot
	for _, k := range keys {
		e := edits[k]
		s, ok := t.slotOf[k]
		var old []*member
		if ok {
			old = t.recs[s].members
		}
		members := mergeMembers(old, e.out, e.in)
		if ok && (len(members) == 0 || members[0] != old[0] && memberIdentity(members[0]) != t.recs[s].rep) {
			t.retire(tr, s)
			drop = append(drop, s)
			ok = false
		}
		if len(members) == 0 {
			continue
		}
		rewritten++
		if ok {
			// The same representative identity: the entry stands. A report
			// carries its invariant's name, so the fragment is joined anew.
			r := &t.recs[s]
			if members[0] != old[0] { // an equal invariant earlier in the list
				drop, add = append(drop, s), append(add, s)
			}
			set(tr, &r.members, members)
			set(tr, &r.frag, r.frag[:0])
			continue
		}
		s = t.alloc(tr)
		set(tr, &t.recs[s], groupRecord{key: k, rep: memberIdentity(members[0]), members: members})
		setEntry(tr, t.slotOf, k, s, true)
		t.setUnsettled(tr, s, true)
		add = append(add, s)
	}
	t.reorder(tr, drop, add)
	return rewritten
}

// mergeMembers returns old without out and with in, in ord order: nil when
// nothing is left, a fresh slice otherwise. old is ord-sorted and holds out;
// out and in come in any order.
func mergeMembers(old, out, in []*member) []*member {
	if len(old)-len(out)+len(in) == 0 {
		return nil
	}
	out, in = sortedByOrd(out), sortedByOrd(in)
	merged := make([]*member, 0, len(old)-len(out)+len(in))
	for _, m := range old {
		if len(out) > 0 && out[0] == m {
			out = out[1:]
			continue
		}
		for len(in) > 0 && in[0].ord < m.ord {
			merged, in = append(merged, in[0]), in[1:]
		}
		merged = append(merged, m)
	}
	return append(merged, in...)
}

// sortedByOrd sorts ms by ord, in place.
func sortedByOrd(ms []*member) []*member {
	slices.SortFunc(ms, func(a, b *member) int { return cmp.Compare(a.ord, b.ord) })
	return ms
}

// memberIdentity is invIdentity of m under its current signature.
func memberIdentity(m *member) string { return invIdentity(m.inv, m.sig) }

// retire frees s: its postings, key and unsettled mark go with it.
func (t *groupTable) retire(tr *trail, s slot) {
	t.post(tr, s, nil)
	setEntry(tr, t.slotOf, t.recs[s].key, 0, false)
	t.setUnsettled(tr, s, false)
	set(tr, &t.recs[s], groupRecord{})
	set(tr, &t.free, append(t.free[:len(t.free):len(t.free)], s))
}

// alloc returns a zero record's slot, a freed one first.
func (t *groupTable) alloc(tr *trail) slot {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		set(tr, &t.free, t.free[:n-1])
		return s
	}
	set(tr, &t.recs, append(t.recs, groupRecord{}))
	return slot(len(t.recs) - 1)
}

// setUnsettled puts s on the unsettled list, or takes it off.
func (t *groupTable) setUnsettled(tr *trail, s slot, on bool) {
	if list, changed := withSlot(tr, t.unsettled, s, on); changed {
		set(tr, &t.unsettled, list)
	}
}

// reorder takes drop's slots out of the report order and puts add's in,
// each at its representative's place. A slot in both moves.
func (t *groupTable) reorder(tr *trail, drop, add []slot) {
	if len(drop) == 0 && len(add) == 0 {
		return
	}
	repOrd := func(s slot) uint64 { return t.recs[s].members[0].ord }
	slices.SortFunc(add, func(a, b slot) int { return cmp.Compare(repOrd(a), repOrd(b)) })
	slices.Sort(drop)
	old := t.order
	order := make([]slot, 0, len(old)-len(drop)+len(add))
	for _, s := range old {
		if _, dropped := slices.BinarySearch(drop, s); dropped {
			continue
		}
		for len(add) > 0 && repOrd(add[0]) < repOrd(s) {
			order, add = append(order, add[0]), add[1:]
		}
		order = append(order, s)
	}
	set(tr, &t.order, append(order, add...))
}

// inReportOrder returns the slots of lists, which are disjoint, in report
// order: their representatives' list order.
func (t *groupTable) inReportOrder(lists ...[]slot) []slot {
	out := slices.Concat(lists...)
	slices.SortFunc(out, func(a, b slot) int { return cmp.Compare(t.recs[a].members[0].ord, t.recs[b].members[0].ord) })
	return out
}

// install makes e the entry of s, on tr: the reads of the entry it replaces
// come off the posting lists, e's go on.
func (t *groupTable) install(tr *trail, s slot, e *groupEntry) {
	t.post(tr, s, e)
	t.setUnsettled(tr, s, e.exceeded)
}

// post replaces the entry of s (e nil = none) and moves s on the posting
// lists of the nodes in one footprint and not the other: a group
// re-verified with the footprint it had edits none.
func (t *groupTable) post(tr *trail, s slot, e *groupEntry) {
	var was, now []topo.NodeID
	if old := t.recs[s].entry; old != nil {
		was = old.touched
	}
	if e != nil {
		now = e.touched
	}
	for _, n := range was {
		if _, kept := slices.BinarySearch(now, n); !kept {
			t.postAt(tr, n, s, false)
		}
	}
	for _, n := range now {
		t.postAt(tr, n, s, true)
	}
	set(tr, &t.recs[s].entry, e)
}

// postAt puts s on n's posting list, or takes it off.
func (t *groupTable) postAt(tr *trail, n topo.NodeID, s slot, in bool) {
	if list, changed := withSlot(tr, t.nodePost[n], s, in); changed {
		setEntry(tr, t.nodePost, n, list, len(list) > 0)
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
