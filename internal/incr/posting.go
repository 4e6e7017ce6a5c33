package incr

// Per-atom dirty posting lists over the session-lifetime shared atom
// universe (Delta-net style). Where depindex.go decides whether ONE
// group's read-set is affected by a change-set, this index answers the
// converse question wholesale: which groups can a change-set affect at
// all? Three posting structures, maintained incrementally as groups are
// (re)verified:
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
//     copy-on-split keeping the lists conservative) and unioning the
//     posting lists of the covered atoms. Groups touched by a changed
//     table but absent from every affected atom's list are refined-clean
//     by construction — the set-level prescreen, without per-group work.
//
//   - coarse: the slots whose entries carry no refined reads (whole-
//     network slices); any change at a footprint node must put them in
//     front of classify.
//
// The lists select CANDIDATES; the existing impact.classify remains the
// per-candidate precision check (matching-subsequence comparison,
// rule-read projections), so verdicts and the RefinedClean accounting
// are bit-identical to the full scan. Soundness: registration covers
// every read the entry records, and copy-on-split preserves membership —
// if a changed prefix covers a registered read atom, the reader's slot
// is on the posting list of the covering universe atom after refinement.

import (
	"sort"

	"github.com/netverify/vmn/internal/topo"
)

// slot is a dense, recyclable index interning one group key.
type slot = int32

// postReg remembers where one slot is registered, for O(registered)
// removal when the group is re-verified or retired.
type postReg struct {
	nodes  []topo.NodeID // aliases the entry's immutable touched slice
	atoms  []topo.AtomID // universe atoms holding this slot (grows on splits)
	coarse bool
}

// depPosting is the session's posting index. It is mutated only under
// the session mutex (sync on Apply's install phase, resolve during
// dirty classification) and deep-copied for transactional shadows.
type depPosting struct {
	u      *topo.AtomUniverse
	slotOf map[string]slot
	// entry tracks the registered entry pointer per slot: entries are
	// immutable after construction, so pointer equality is "this group
	// was not re-verified" and sync can skip its re-registration.
	entry    []*groupEntry
	regs     []postReg
	free     []slot
	nodePost map[topo.NodeID][]slot
	atomPost map[topo.AtomID][]slot
	coarse   map[slot]bool
}

func newDepPosting() *depPosting {
	return &depPosting{
		u:        topo.NewAtomUniverse(),
		slotOf:   map[string]slot{},
		nodePost: map[topo.NodeID][]slot{},
		atomPost: map[topo.AtomID][]slot{},
		coarse:   map[slot]bool{},
	}
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

// alloc interns key into a slot (recycling retired ones).
func (p *depPosting) alloc(key string) slot {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.slotOf[key] = s
		return s
	}
	s := slot(len(p.entry))
	p.entry = append(p.entry, nil)
	p.regs = append(p.regs, postReg{})
	p.slotOf[key] = s
	return s
}

// register records every read the entry carries under s. The caller must
// have unregistered any previous entry of s first.
func (p *depPosting) register(s slot, e *groupEntry) {
	p.entry[s] = e
	reg := &p.regs[s]
	reg.nodes = e.touched
	for _, n := range e.touched {
		p.nodePost[n] = insertSlot(p.nodePost[n], s)
	}
	if e.coarse {
		reg.coarse = true
		p.coarse[s] = true
		return
	}
	seen := map[topo.AtomID]bool{}
	for _, atoms := range e.fib {
		for _, a := range atoms {
			id := p.u.AtomOf(a)
			if seen[id] {
				continue
			}
			seen[id] = true
			reg.atoms = append(reg.atoms, id)
			p.atomPost[id] = insertSlot(p.atomPost[id], s)
		}
	}
}

// unregister removes every posting of s and clears its registration.
func (p *depPosting) unregister(s slot) {
	reg := &p.regs[s]
	for _, n := range reg.nodes {
		if list := removeSlot(p.nodePost[n], s); len(list) > 0 {
			p.nodePost[n] = list
		} else {
			delete(p.nodePost, n)
		}
	}
	for _, id := range reg.atoms {
		if list := removeSlot(p.atomPost[id], s); len(list) > 0 {
			p.atomPost[id] = list
		} else {
			delete(p.atomPost, id)
		}
	}
	if reg.coarse {
		delete(p.coarse, s)
	}
	p.regs[s] = postReg{}
	p.entry[s] = nil
}

// sync reconciles the index with the freshly installed entry map:
// retired keys are unregistered and their slots recycled, re-verified
// groups (new entry pointer) re-registered, untouched groups skipped.
// Called on Apply's install phase, so the index always mirrors
// s.entries exactly.
func (p *depPosting) sync(entries map[string]*groupEntry) {
	for key, s := range p.slotOf {
		e, ok := entries[key]
		if ok && p.entry[s] == e {
			continue
		}
		p.unregister(s)
		if !ok {
			delete(p.slotOf, key)
			p.free = append(p.free, s)
		}
	}
	for key, e := range entries {
		s, ok := p.slotOf[key]
		if ok && p.entry[s] == e {
			continue
		}
		if !ok {
			s = p.alloc(key)
		}
		p.register(s, e)
	}
}

// postResolution is the wholesale answer for one impact: which groups
// must run classify, which are refined-clean without it, and which are
// untouched (clean).
type postResolution struct {
	p *depPosting
	// touched: footprint intersects a changed element. mustClassify:
	// subset that could classify dirty (node/box channel, coarse, or a
	// read atom under a changed prefix).
	touched      map[slot]bool
	mustClassify map[slot]bool
}

// resolve screens an impact against the posting lists. It refines the
// shared universe by every changed prefix (so the per-atom lookup below
// is exact for registered reads) and returns the candidate partition.
func (p *depPosting) resolve(im *impact) *postResolution {
	res := &postResolution{p: p, touched: map[slot]bool{}, mustClassify: map[slot]bool{}}
	for n := range im.nodes {
		for _, s := range p.nodePost[n] {
			res.touched[s] = true
			res.mustClassify[s] = true
		}
	}
	for n := range im.boxes {
		for _, s := range p.nodePost[n] {
			res.touched[s] = true
			res.mustClassify[s] = true
		}
	}
	if len(im.fib) == 0 {
		return res
	}
	for n := range im.fib {
		for _, s := range p.nodePost[n] {
			res.touched[s] = true
			if p.coarse[s] {
				res.mustClassify[s] = true
			}
		}
	}
	onSplit := func(sp topo.AtomSplit) {
		parent := p.atomPost[sp.Parent]
		if len(parent) == 0 {
			return
		}
		p.atomPost[sp.Child] = append([]slot(nil), parent...)
		for _, s := range parent {
			p.regs[s].atoms = append(p.regs[s].atoms, sp.Child)
		}
	}
	var ids []topo.AtomID
	for _, deltas := range im.fib {
		for _, d := range deltas {
			for _, pfx := range d.changed {
				p.u.RefinePrefix(pfx, onSplit)
				ids = p.u.AtomsOfPrefix(pfx, ids[:0])
				for _, id := range ids {
					for _, s := range p.atomPost[id] {
						if res.touched[s] {
							res.mustClassify[s] = true
						}
					}
				}
			}
		}
	}
	return res
}

// postVerdict is the posting-level screening outcome for one group.
type postVerdict int8

const (
	postClean postVerdict = iota
	// postRefined: the footprint intersects a changed element but no
	// registered read can be affected — refined-clean without classify.
	postRefined
	// postClassify: a candidate; run impact.classify for the precise
	// verdict and provenance.
	postClassify
)

// screen classifies one group key against the resolution. Keys without a
// slot (not yet registered — defensive, sync keeps this from happening)
// degrade to postClassify.
func (r *postResolution) screen(key string) postVerdict {
	s, ok := r.p.slotOf[key]
	if !ok {
		return postClassify
	}
	if r.mustClassify[s] {
		return postClassify
	}
	if r.touched[s] {
		return postRefined
	}
	return postClean
}

// entries counts the slots held across all node and atom posting lists.
func (p *depPosting) entries() int {
	n := 0
	for _, list := range p.nodePost {
		n += len(list)
	}
	for _, list := range p.atomPost {
		n += len(list)
	}
	return n
}

// clone deep-copies the index for a transactional shadow run: the shadow
// refines the universe and re-syncs against its own entries without the
// base ever observing it.
func (p *depPosting) clone() *depPosting {
	c := &depPosting{
		u:        p.u.Clone(),
		slotOf:   make(map[string]slot, len(p.slotOf)),
		entry:    append([]*groupEntry(nil), p.entry...),
		regs:     make([]postReg, len(p.regs)),
		free:     append([]slot(nil), p.free...),
		nodePost: make(map[topo.NodeID][]slot, len(p.nodePost)),
		atomPost: make(map[topo.AtomID][]slot, len(p.atomPost)),
		coarse:   make(map[slot]bool, len(p.coarse)),
	}
	for k, v := range p.slotOf {
		c.slotOf[k] = v
	}
	for i, reg := range p.regs {
		c.regs[i] = postReg{
			nodes:  reg.nodes, // aliases immutable entry data
			atoms:  append([]topo.AtomID(nil), reg.atoms...),
			coarse: reg.coarse,
		}
	}
	for n, list := range p.nodePost {
		c.nodePost[n] = append([]slot(nil), list...)
	}
	for id, list := range p.atomPost {
		c.atomPost[id] = append([]slot(nil), list...)
	}
	for s := range p.coarse {
		c.coarse[s] = true
	}
	return c
}
