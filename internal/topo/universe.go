package topo

// AtomUniverse is the session-lifetime shared atom partition (Delta-net
// style): the full 32-bit destination space divided into contiguous
// intervals ("universe atoms"), refined incrementally as changed prefixes
// arrive. Where AtomSet holds the concrete addresses one check read,
// the universe gives every concrete address a stable interval identity —
// the key the incremental layer's per-atom posting lists (internal/incr)
// are indexed by. Refining by a prefix inserts the prefix's two interval
// boundaries, splitting at most two existing intervals in place instead
// of rebuilding any per-check AtomSet; each split keeps the lower half
// under the parent's identity and mints a fresh identity for the upper
// half, reported to the caller so label sets can follow (Delta-net's
// copy-on-split; internal/incr sends each reader of the split interval to
// the half its reads are in, so its posting lists stay exact).

import (
	"sort"

	"github.com/netverify/vmn/internal/pkt"
)

// AtomID is the stable identity of one universe interval atom. IDs are
// never reused: a split mints a fresh ID for the upper half and the
// parent keeps its own.
type AtomID int32

// AtomSplit reports one in-place interval split: Parent kept the lower
// half of its old interval, Child is the freshly minted upper half.
type AtomSplit struct {
	Parent, Child AtomID
}

// AtomUniverse partitions the address space into interval atoms. The
// zero value is not ready; use NewAtomUniverse. Not safe for concurrent
// mutation.
type AtomUniverse struct {
	// starts[i] is the first address of interval i (starts[0] == 0); the
	// interval runs to starts[i+1]-1 (or the address-space top). ids is
	// position-parallel: the stable AtomID of each interval.
	starts []pkt.Addr
	ids    []AtomID
	next   AtomID
}

// NewAtomUniverse returns the one-atom universe covering the whole
// address space.
func NewAtomUniverse() *AtomUniverse {
	return &AtomUniverse{starts: []pkt.Addr{0}, ids: []AtomID{0}, next: 1}
}

// NumAtoms returns how many atom IDs have been minted (splits only mint,
// never retire, so this is also the interval count).
func (u *AtomUniverse) NumAtoms() int { return int(u.next) }

// RefinePrefix refines the partition so p's address interval is a union
// of whole atoms, splitting at most two intervals in place (one per
// prefix boundary). Every split is reported through onSplit (nil ok)
// before RefinePrefix returns, in boundary order.
func (u *AtomUniverse) RefinePrefix(p pkt.Prefix, onSplit func(AtomSplit)) {
	lo, hi := prefixRange(p)
	u.insertBoundary(lo, onSplit)
	if hi != ^pkt.Addr(0) {
		u.insertBoundary(hi+1, onSplit)
	}
}

// insertBoundary makes b the first address of an interval, splitting the
// interval currently containing it (no-op when b already starts one).
func (u *AtomUniverse) insertBoundary(b pkt.Addr, onSplit func(AtomSplit)) {
	// i = the interval containing b: last index with starts[i] <= b.
	i := sort.Search(len(u.starts), func(i int) bool { return u.starts[i] > b }) - 1
	if u.starts[i] == b {
		return
	}
	child := u.next
	u.next++
	u.starts = append(u.starts, 0)
	u.ids = append(u.ids, 0)
	copy(u.starts[i+2:], u.starts[i+1:])
	copy(u.ids[i+2:], u.ids[i+1:])
	u.starts[i+1] = b
	u.ids[i+1] = child
	if onSplit != nil {
		onSplit(AtomSplit{Parent: u.ids[i], Child: child})
	}
}

// AtomOf returns the ID of the interval atom containing a.
func (u *AtomUniverse) AtomOf(a pkt.Addr) AtomID {
	i := sort.Search(len(u.starts), func(i int) bool { return u.starts[i] > a }) - 1
	return u.ids[i]
}

// AtomsOfPrefix appends to dst the IDs of every interval atom that
// intersects p. After RefinePrefix(p) these are exactly the atoms inside
// p; without prior refinement the two boundary atoms may extend past p
// (a conservative superset, which is what dirtying wants).
func (u *AtomUniverse) AtomsOfPrefix(p pkt.Prefix, dst []AtomID) []AtomID {
	lo, hi := prefixRange(p)
	i := sort.Search(len(u.starts), func(i int) bool { return u.starts[i] > lo }) - 1
	for ; i < len(u.starts) && u.starts[i] <= hi; i++ {
		dst = append(dst, u.ids[i])
	}
	return dst
}

// Clone returns an independent copy (for transactional shadow runs).
func (u *AtomUniverse) Clone() *AtomUniverse {
	return &AtomUniverse{
		starts: append([]pkt.Addr(nil), u.starts...),
		ids:    append([]AtomID(nil), u.ids...),
		next:   u.next,
	}
}
