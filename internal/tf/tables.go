package tf

import (
	"cmp"
	"slices"

	"github.com/netverify/vmn/internal/topo"
)

// Tables is compiled forwarding state: per table owner the rule list as
// the FIB gave it, its priority-sorted copy (what hop decisions scan) and
// a content hash. A Tables value is immutable once built. Patch derives a
// successor that re-sorts and re-hashes only the tables that differ and
// shares every other compiled table with its parent, so a one-rule update
// costs one table, not the network; Engine derives a per-failure-scenario
// view, so engines for different scenarios over the same forwarding state
// hold one copy of it.
type Tables struct {
	topo *topo.Topology
	// tabs is indexed by NodeID (IDs are dense); nil means the owner has
	// no table. Owners outside the topology are dropped at compile time:
	// no walk can reach them (a hop resolves its target through the
	// topology first).
	tabs []*table
	n    int // non-nil entries of tabs
	// hash is the wrapping sum of the tables' hashes: order-independent,
	// so a patch subtracts the old table's term and adds the new one's.
	hash uint64
}

// table is one owner's compiled state, shared by every Tables value
// derived from the one that compiled it.
type table struct {
	src    []Rule  // the FIB's rule list, table order, not copied
	sorted []Rule  // src by precedence
	pos    []int32 // pos[i] is the index in src of sorted[i]
	hash   uint64  // of (owner, sorted)
}

// TableDelta is one owner whose rule list differs between a compiled
// state and a FIB. Old and New are the two lists in table order (nil: the
// owner has no table on that side) and equal each other on their first
// Head and last Tail rules, which is as far as one comparison pass from
// both ends gets; the differing middles are what is left.
type TableDelta struct {
	Node       topo.NodeID
	Old, New   []Rule
	Head, Tail int
}

// Middle returns the differing middles of the two lists: everything
// between the common head and the common tail.
func (d TableDelta) Middle() (old, new []Rule) {
	return d.Old[d.Head : len(d.Old)-d.Tail], d.New[d.Head : len(d.New)-d.Tail]
}

// NewTableDelta compares two rule lists of one owner from both ends.
func NewTableDelta(n topo.NodeID, old, new []Rule) TableDelta {
	d := TableDelta{Node: n, Old: old, New: new}
	for d.Head < len(old) && d.Head < len(new) && old[d.Head] == new[d.Head] {
		d.Head++
	}
	rest := min(len(old), len(new)) - d.Head
	for d.Tail < rest && old[len(old)-1-d.Tail] == new[len(new)-1-d.Tail] {
		d.Tail++
	}
	return d
}

// Compile builds the compiled state of fib from scratch. The FIB's rule
// lists are not copied; callers must not mutate them afterwards.
func Compile(t *topo.Topology, fib FIB) *Tables {
	tabs, _, _ := NewTables(t).patch(fib, false)
	return tabs
}

// NewTables returns the compiled state of the empty FIB, the root every
// other state is patched from.
func NewTables(t *topo.Topology) *Tables { return &Tables{topo: t} }

// Patch compiles fib against t: every owner whose rule list differs from
// the compiled one is re-sorted and re-hashed, every other table is
// shared with t. It returns the new state (t itself when nothing
// differs), one TableDelta per differing owner, and how many tables it
// compiled.
//
// A list is unchanged when it is the very slice t compiled (same backing
// array and length) or compares equal rule by rule. The first test is
// what makes a patch cheap — a caller that derives the next FIB from the
// previous one hands over the same slices for every table it did not
// touch — and it is sound because a handed-over rule list is never
// mutated.
func (t *Tables) Patch(fib FIB) (*Tables, []TableDelta, int) {
	return t.patch(fib, true)
}

func (t *Tables) patch(fib FIB, wantDeltas bool) (*Tables, []TableDelta, int) {
	size := max(len(t.tabs), t.topo.NumNodes())
	var nt *Tables // allocated at the first difference
	var deltas []TableDelta
	compiled := 0
	set := func(n topo.NodeID, tab *table) {
		if nt == nil {
			nt = &Tables{topo: t.topo, n: t.n, hash: t.hash, tabs: make([]*table, size)}
			copy(nt.tabs, t.tabs)
		}
		if old := nt.tabs[n]; old != nil {
			nt.hash -= old.hash
			nt.n--
		}
		if tab != nil {
			nt.hash += tab.hash
			nt.n++
			compiled++
		}
		nt.tabs[n] = tab
	}
	kept := 0
	for n, rules := range fib {
		if n < 0 || int(n) >= size {
			continue
		}
		d := TableDelta{Node: n, New: rules}
		old := t.table(n)
		if old != nil {
			kept++
			if sameSlice(old.src, rules) {
				continue
			}
			d = NewTableDelta(n, old.src, rules)
			if d.Head == len(d.Old) && d.Head == len(d.New) {
				continue // a copy, equal rule by rule
			}
		}
		set(n, compile(n, old, d))
		if wantDeltas {
			deltas = append(deltas, d)
		}
	}
	if kept != t.n {
		// Some compiled owner is missing from fib: its table is deleted.
		for i, old := range t.tabs {
			if _, ok := fib[topo.NodeID(i)]; old == nil || ok {
				continue
			}
			set(topo.NodeID(i), nil)
			if wantDeltas {
				deltas = append(deltas, TableDelta{Node: topo.NodeID(i), Old: old.src})
			}
		}
	}
	if nt == nil {
		return t, nil, 0
	}
	return nt, deltas, compiled
}

// sameSlice reports whether a and b are the same slice: same backing
// array, same length.
func sameSlice(a, b []Rule) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// byPrecedence orders rules the way a hop decision tries them: highest
// priority first, an ingress-specific rule before a wildcard one, a longer
// prefix before a shorter one.
func byPrecedence(a, b Rule) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	if ai, bi := a.In != topo.NodeNone, b.In != topo.NodeNone; ai != bi {
		if ai {
			return -1
		}
		return 1
	}
	return cmp.Compare(b.Match.Len, a.Match.Len)
}

// compile sorts and hashes owner n's new list d.New. The sort is stable —
// rules that tie on every criterion keep their table order — and works
// from the old table: the rules outside d's differing middles keep their
// relative order, so the new sorted list is the old one without the old
// middle's rules, merged with the new middle sorted on its own. With no
// old table the middle is the whole list and this is a plain stable sort.
func compile(n topo.NodeID, old *table, d TableDelta) *table {
	rules := d.New
	mid := make([]int32, len(rules)-d.Head-d.Tail)
	for i := range mid {
		mid[i] = int32(d.Head + i)
	}
	slices.SortStableFunc(mid, func(a, b int32) int { return byPrecedence(rules[a], rules[b]) })

	t := &table{src: rules, sorted: make([]Rule, 0, len(rules)), pos: make([]int32, 0, len(rules))}
	add := func(p int32) {
		t.sorted = append(t.sorted, rules[p])
		t.pos = append(t.pos, p)
	}
	if old != nil {
		tail, shift := int32(len(d.Old)-d.Tail), int32(len(d.New)-len(d.Old))
		for i, r := range old.sorted {
			p := old.pos[i]
			switch {
			case p >= tail:
				p += shift
			case p >= int32(d.Head):
				continue // a rule of the old middle
			}
			// Middle rules that sort before r, or tie with it and precede
			// it in the table, go first.
			for len(mid) > 0 {
				if c := byPrecedence(rules[mid[0]], r); c > 0 || c == 0 && mid[0] > p {
					break
				}
				add(mid[0])
				mid = mid[1:]
			}
			add(p)
		}
	}
	for _, p := range mid {
		add(p)
	}

	h := mix64(uint64(uint32(n))<<32 | uint64(uint32(len(rules))))
	for _, r := range t.sorted {
		h = mix64(h ^ (uint64(r.Match.Addr)<<8 | uint64(uint8(r.Match.Len))))
		h = mix64(h ^ (uint64(uint32(r.In))<<32 | uint64(uint32(r.Out))))
		h = mix64(h ^ uint64(r.Priority))
	}
	t.hash = h
	return t
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler, applied
// word by word where FNV would go byte by byte.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (t *Tables) table(n topo.NodeID) *table {
	if n < 0 || int(n) >= len(t.tabs) {
		return nil
	}
	return t.tabs[n]
}

// sorted returns owner n's priority-sorted rules (nil when n has no table).
func (t *Tables) sorted(n topo.NodeID) []Rule {
	if tab := t.table(n); tab != nil {
		return tab.sorted
	}
	return nil
}

// Rules returns owner n's rule list in table order, as the FIB gave it
// (nil when n has no table). Callers must not mutate it.
func (t *Tables) Rules(n topo.NodeID) []Rule {
	if tab := t.table(n); tab != nil {
		return tab.src
	}
	return nil
}

// Equal reports whether two compiled states over the same topology hold
// the same sorted tables — the content comparison behind every hash
// match. Shared tables compare by pointer.
func (t *Tables) Equal(o *Tables) bool {
	if t == o {
		return true
	}
	if t.n != o.n || t.hash != o.hash {
		return false
	}
	for i := 0; i < max(len(t.tabs), len(o.tabs)); i++ {
		a, b := t.table(topo.NodeID(i)), o.table(topo.NodeID(i))
		if a == b {
			continue
		}
		if a == nil || b == nil || a.hash != b.hash || !slices.Equal(a.sorted, b.sorted) {
			return false
		}
	}
	return true
}
