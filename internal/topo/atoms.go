package topo

// Address atoms for fine-grained dependency tracking (Delta-net style, at
// the granularity this repo's finite packet alphabets afford): a check's
// forwarding-state read-set is a set of concrete destination addresses
// ("atoms") looked up per node, and a FIB update dirties the check only if
// a changed rule's prefix covers one of those atoms. AtomSet is the sorted
// set representation plus the prefix-intersection predicate the
// incremental layer's dependency index (internal/incr) screens changed
// rules against.

import (
	"sort"

	"github.com/netverify/vmn/internal/pkt"
)

// AtomSet is a sorted, duplicate-free set of concrete address atoms.
// The zero value is the empty set.
type AtomSet []pkt.Addr

// NewAtomSet builds an AtomSet from addrs (copied, sorted, deduplicated;
// the zero address AddrNone is dropped — it marks "unset", not an atom).
func NewAtomSet(addrs []pkt.Addr) AtomSet {
	s := make(AtomSet, 0, len(addrs))
	for _, a := range addrs {
		if a != pkt.AddrNone {
			s = append(s, a)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, a := range s {
		if i == 0 || a != s[i-1] {
			out = append(out, a)
		}
	}
	return out
}

// Contains reports whether a is in the set.
func (s AtomSet) Contains(a pkt.Addr) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= a })
	return i < len(s) && s[i] == a
}

// prefixRange returns the inclusive address interval p covers.
func prefixRange(p pkt.Prefix) (lo, hi pkt.Addr) {
	if p.Len <= 0 {
		return 0, ^pkt.Addr(0)
	}
	if p.Len >= 32 {
		return p.Addr, p.Addr
	}
	shift := uint(32 - p.Len)
	lo = p.Addr >> shift << shift
	return lo, lo | (1<<shift - 1)
}

// IntersectsPrefix reports whether any atom of s falls within p — whether
// a rule matching p could ever fire for a packet whose destination is one
// of these atoms. A prefix covers one contiguous address interval, so the
// test is a single binary search.
func (s AtomSet) IntersectsPrefix(p pkt.Prefix) bool {
	lo, hi := prefixRange(p)
	i := sort.Search(len(s), func(i int) bool { return s[i] >= lo })
	return i < len(s) && s[i] <= hi
}

// Union returns the union of s and o (s or o themselves when one contains
// the other end-to-end, a fresh set otherwise). The subset fast path is
// what lets internal/incr union a group's per-scenario read sets without
// allocating when the scenarios read the same atoms — the common case.
func (s AtomSet) Union(o AtomSet) AtomSet {
	if len(o) == 0 {
		return s
	}
	if len(s) == 0 {
		return o
	}
	if len(s) >= len(o) && s.containsAll(o) {
		return s
	}
	if len(o) > len(s) && o.containsAll(s) {
		return o
	}
	out := make(AtomSet, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	return append(out, o[j:]...)
}

// containsAll reports o ⊆ s by one linear merge walk (both sets are
// sorted and duplicate-free).
func (s AtomSet) containsAll(o AtomSet) bool {
	i := 0
	for _, a := range o {
		for i < len(s) && s[i] < a {
			i++
		}
		if i >= len(s) || s[i] != a {
			return false
		}
		i++
	}
	return true
}
