package incr

// Dependency bookkeeping: translating a change-set into an impact record
// the session classifies each group's read-set against. Three channels,
// in decreasing coarseness:
//
//   - nodes: elements whose liveness, membership or policy changed
//     (node up/down, box add/remove, relabels). Any group whose footprint
//     contains such an element is dirty — exactly the PR 2 behaviour.
//
//   - fib: forwarding tables whose rule lists changed, carried as
//     old/new pairs per effective scenario. A group is dirty only if one
//     of its read atoms at that node resolves differently: the walk
//     decision at (node, dst) is a function of the ordered subsequence of
//     rules matching dst (priority sorting is stable, so the relative
//     order of the matching rules is preserved regardless of unrelated
//     rules around them), so the group re-verifies iff that subsequence
//     differs between the old and new table for some atom it read. This
//     covers negative reads by construction: a lookup that matched only a
//     covering default gains a new first element when a more-specific
//     rule arrives, and loses nothing when the change is outside every
//     atom.
//
//   - boxes: middlebox nodes given a new model. A group is dirty
//     only if the box's rule-read projection onto the group's address
//     universe (mbox.ReadKey) differs from the projection stored
//     when the group was last verified — appending a rule for an
//     unrelated tenant leaves the projection, and hence the verdict,
//     untouched.
//
// The soundness argument is the determinism of the transfer function
// combined with complete read sets: tf.Engine.Consulted reports every
// node whose table OR liveness a walk reads (visited nodes, failed rule
// targets routed around, neighbors examined by implicit-default choices),
// tf.Engine.ConsultedTables the subset whose tables are read, so a change
// outside every read of a group cannot alter any walk, the slice closure,
// the grounded problem, or the verdict. Per-scenario forwarding state
// (FIBFor) can itself depend on the failure scenario, so liveness toggles
// and provider swaps are diffed table-by-table and flow through the fib
// channel.

import (
	"slices"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// elemSet is a set of network elements.
type elemSet map[topo.NodeID]bool

func (s elemSet) add(n topo.NodeID) { s[n] = true }

func (s elemSet) addAll(nodes []topo.NodeID) {
	for _, n := range nodes {
		s[n] = true
	}
}

// firstOf returns the first of nodes present in the set — the dirtying
// witness element for provenance records.
func (s elemSet) firstOf(nodes []topo.NodeID) (topo.NodeID, bool) {
	for _, n := range nodes {
		if s[n] {
			return n, true
		}
	}
	return 0, false
}

// fibDelta is one changed forwarding table: the old and new rule lists of
// one node under one effective scenario, the prefixes of the rules in
// their differing middles (the atom prescreen), and a lazily filled
// per-atom verdict memo shared by every group classified against this
// delta. Classification runs on Apply's serializing goroutine, so the memo
// needs no lock.
type fibDelta struct {
	oldRules, newRules []tf.Rule
	changed            []pkt.Prefix
	memo               map[pkt.Addr]bool // true = resolves differently
}

// newFIBDelta records a changed table and the prefixes of every rule
// between the lists' common head and common tail — a superset of the
// rules whose matching behaviour can differ for any address. Rules of the
// head and of the tail keep their relative order in both lists, so an
// address no middle rule matches sees head matches then tail matches on
// either side: the same subsequence. Trimming is what keeps one inserted
// rule from naming every rule it shifted; dirtyAtom stays the precise
// check either way.
func newFIBDelta(td tf.TableDelta) *fibDelta {
	d := &fibDelta{oldRules: td.Old, newRules: td.New}
	oldMid, newMid := td.Middle()
	seen := make(map[pkt.Prefix]bool, len(oldMid)+len(newMid))
	for _, mid := range [2][]tf.Rule{oldMid, newMid} {
		for _, r := range mid {
			if !seen[r.Match] {
				seen[r.Match] = true
				d.changed = append(d.changed, r.Match)
			}
		}
	}
	return d
}

// meets is the set-level prescreen: whether any prefix the delta names
// meets a read atom, one AtomSet.IntersectsPrefix binary search each.
func (d *fibDelta) meets(atoms topo.AtomSet) bool {
	return slices.ContainsFunc(d.changed, atoms.IntersectsPrefix)
}

// readsChanged reports whether any of one table's deltas meets atoms.
func readsChanged(atoms topo.AtomSet, deltas []*fibDelta) bool {
	return slices.ContainsFunc(deltas, func(d *fibDelta) bool { return d.meets(atoms) })
}

// dirtyAtom reports whether any read atom resolves differently under the
// new table, returning the first such atom as the provenance witness. The
// common case — a change entirely outside the group's address space —
// exits on the prescreen; only groups that survive it pay for per-atom
// matching-subsequence comparison.
func (d *fibDelta) dirtyAtom(atoms topo.AtomSet) (pkt.Addr, bool) {
	if !d.meets(atoms) {
		return 0, false
	}
	for _, a := range atoms {
		covered := false
		for _, p := range d.changed {
			if p.Matches(a) {
				covered = true
				break
			}
		}
		if !covered {
			continue
		}
		dirty, ok := d.memo[a]
		if !ok {
			dirty = !equalMatching(d.oldRules, d.newRules, a)
			if d.memo == nil {
				d.memo = map[pkt.Addr]bool{}
			}
			d.memo[a] = dirty
		}
		if dirty {
			return a, true
		}
	}
	return 0, false
}

// equalMatching compares the ordered subsequences of rules matching a.
func equalMatching(old, new []tf.Rule, a pkt.Addr) bool {
	j := 0
	for _, r := range old {
		if !r.Match.Matches(a) {
			continue
		}
		for j < len(new) && !new[j].Match.Matches(a) {
			j++
		}
		if j >= len(new) || new[j] != r {
			return false
		}
		j++
	}
	for j < len(new) {
		if new[j].Match.Matches(a) {
			return false
		}
		j++
	}
	return true
}

// impact is the classified effect of one change-set (see the package
// comment above for the three channels). The src fields carry provenance:
// the index (into the Apply's change-set) of the first change that put
// each element on its channel, -1 or absent when not attributable to a
// single change. Every changed table shares one fibSrc.
type impact struct {
	nodes elemSet
	fib   map[topo.NodeID][]*fibDelta
	boxes elemSet

	nodeSrc map[topo.NodeID]int
	fibSrc  int
	boxSrc  map[topo.NodeID]int
}

func newImpact() *impact {
	return &impact{
		nodes: elemSet{}, fib: map[topo.NodeID][]*fibDelta{}, boxes: elemSet{},
		nodeSrc: map[topo.NodeID]int{}, fibSrc: -1, boxSrc: map[topo.NodeID]int{},
	}
}

// addNode records n on the node channel, attributed to change ci
// (first change wins).
func (im *impact) addNode(n topo.NodeID, ci int) {
	im.nodes.add(n)
	if _, ok := im.nodeSrc[n]; !ok {
		im.nodeSrc[n] = ci
	}
}

// addBox records n on the box channel, attributed to change ci.
func (im *impact) addBox(n topo.NodeID, ci int) {
	im.boxes.add(n)
	if _, ok := im.boxSrc[n]; !ok {
		im.boxSrc[n] = ci
	}
}

// srcOf looks up an attribution map (-1 when absent).
func srcOf(m map[topo.NodeID]int, n topo.NodeID) int {
	if ci, ok := m[n]; ok {
		return ci
	}
	return -1
}

// addTableDeltas puts every changed table of the engine sync (one delta
// list per effective scenario) on the fib channel and attributes them to
// the first change that could move forwarding state (the deltas are
// aggregate across the set, so finer attribution is not possible).
func (im *impact) addTableDeltas(deltas [][]tf.TableDelta, changes []Change) {
	for _, ds := range deltas {
		for _, td := range ds {
			im.fib[td.Node] = append(im.fib[td.Node], newFIBDelta(td))
		}
	}
	for ci, ch := range changes {
		if ch.Kind == KindNodeDown || ch.Kind == KindNodeUp || ch.Kind == KindFIB {
			im.fibSrc = ci
			return
		}
	}
}

// groupVerdict classifies one group's read-set against the impact.
type groupVerdict int8

const (
	groupClean groupVerdict = iota
	// groupRefinedClean: element-level dirtying would have re-verified the
	// group (its footprint intersects a changed element), but the refined
	// read-set proved every change irrelevant.
	groupRefinedClean
	groupDirty
)

// classify decides whether the changes recorded in the impact can affect a
// group with the given read-set memory. On groupDirty the returned cause
// names the channel, the witness element (and read atom, for refined FIB
// dirtying), and the attributable change index. Each channel is visited
// in the footprint's ascending node order, so the cause is the same
// whatever order the impact's maps iterate in.
func (im *impact) classify(e *groupEntry, boxKey func(n topo.NodeID, universe topo.AtomSet) (string, bool)) (groupVerdict, DirtyCause) {
	if n, ok := im.nodes.firstOf(e.touched); ok {
		return groupDirty, DirtyCause{Reason: CauseNode, Node: n, HasNode: true, Change: srcOf(im.nodeSrc, n)}
	}
	refined := false
	for _, n := range e.touched {
		deltas, ok := im.fib[n]
		if !ok {
			continue
		}
		if e.coarse {
			return groupDirty, DirtyCause{Reason: CauseFIB, Node: n, HasNode: true, Change: im.fibSrc}
		}
		atoms := e.fib[n]
		if len(atoms) == 0 {
			// Consulted for liveness or membership only: the node's
			// forwarding entries were never read, so a table change there
			// cannot alter any walk of this group.
			refined = true
			continue
		}
		for _, d := range deltas {
			if a, dirty := d.dirtyAtom(atoms); dirty {
				return groupDirty, DirtyCause{
					Reason: CauseFIBAtom, Node: n, HasNode: true,
					Atom: a, HasAtom: true, Change: im.fibSrc,
				}
			}
		}
		refined = true
	}
	for _, n := range e.touched {
		if !im.boxes[n] {
			continue
		}
		if e.coarse {
			return groupDirty, DirtyCause{Reason: CauseBoxConfig, Node: n, HasNode: true, Change: srcOf(im.boxSrc, n)}
		}
		stored, ok := e.boxKeys[n]
		if !ok {
			// The box was not part of the group's slice when verified (or
			// its model has no rule-read projection): no stored read to
			// compare against, dirty at node granularity.
			return groupDirty, DirtyCause{Reason: CauseBoxConfig, Node: n, HasNode: true, Change: srcOf(im.boxSrc, n)}
		}
		cur, ok := boxKey(n, e.universe)
		if !ok || cur != stored {
			return groupDirty, DirtyCause{Reason: CauseBoxConfig, Node: n, HasNode: true, Change: srcOf(im.boxSrc, n)}
		}
		refined = true
	}
	if refined {
		return groupRefinedClean, DirtyCause{}
	}
	return groupClean, DirtyCause{}
}
