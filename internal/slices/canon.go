package slices

// Canonical slice normalization. Two slices that differ only by a renaming
// of their addresses, endpoints, node IDs and middlebox configuration keys
// pose the same verification problem: solve one, translate the witness.
// This file builds the machinery: a Canonizer assigns canonical numbers to
// the nodes, addresses and prefixes of one (invariant, scenario, slice)
// problem in order of discovery from a normalized serialization of the
// problem content, and produces
//
//   - a canonical key: the problem content serialized with every concrete
//     name replaced by its canonical number, prefixes replaced by their
//     match behaviour over the canonical address universe, and the slice's
//     edge-to-edge forwarding behaviour (the transfer-function matrix over
//     universe nodes × universe addresses) appended — so equal keys imply
//     the existence of a bijection under which the two problems are
//     byte-identical, and hence equal verdicts and corresponding traces;
//   - an invertible Renaming, used to translate violation witnesses from a
//     representative's namespace into each class member's.
//
// Soundness does not depend on the discovery order: the key embeds the
// complete behavioural content, so a "bad" order can only split classes
// that a better order would merge, never merge classes with different
// behaviour. Discovery order matters for completeness only — seeding it
// from the invariant's structural slots makes symmetric tenant pairs land
// on equal keys.
//
// The serialized behaviour is the transfer matrix, not the forwarding
// tables: Next(from, addr) over universe edge nodes × universe addresses is
// everything either engine reads from the fabric. Internal fabric layout is
// thus abstracted away — a tenant moved onto a fresh but behaviourally
// identical footprint canonicalizes identically even if the new racks have
// different switch IDs or table layouts.

import (
	"encoding/binary"
	"math"
	"slices"

	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Canonical sentinels. Real canonical numbers count up from zero, so the
// top of the uint32 range is free for markers.
const (
	canonNone = math.MaxUint32     // NodeNone / AddrNone
	cellDrop  = math.MaxUint32 - 1 // transfer matrix: fabric drops the packet
	cellErr   = math.MaxUint32 - 2 // transfer matrix: walk errors (forwarding loop)
)

// Renaming is a bijection between one slice's concrete names and the
// canonical alphabet: nodes, addresses and prefixes each get dense numbers
// in discovery order. It supports both directions — concrete→canonical for
// key construction, canonical→concrete for witness translation.
type Renaming struct {
	nodeNum map[topo.NodeID]uint32
	nodeInv []topo.NodeID
	addrNum map[pkt.Addr]uint32
	addrInv []pkt.Addr
	pfxNum  map[pkt.Prefix]uint32
	pfxInv  []pkt.Prefix
}

func newRenaming() *Renaming {
	return &Renaming{
		nodeNum: map[topo.NodeID]uint32{},
		addrNum: map[pkt.Addr]uint32{},
		pfxNum:  map[pkt.Prefix]uint32{},
	}
}

// ExportTables returns the renaming's inverse tables in canonical
// order. Together with NewRenamingFromTables it round-trips a Renaming
// through the persistent verdict store: the slices are the complete
// state (the forward maps are derived), so a restored renaming
// translates witnesses identically to the one that was snapshotted.
func (r *Renaming) ExportTables() (nodes []topo.NodeID, addrs []pkt.Addr, pfxs []pkt.Prefix) {
	nodes = append([]topo.NodeID(nil), r.nodeInv...)
	addrs = append([]pkt.Addr(nil), r.addrInv...)
	pfxs = append([]pkt.Prefix(nil), r.pfxInv...)
	return nodes, addrs, pfxs
}

// NewRenamingFromTables rebuilds a Renaming from canonical-order
// inverse tables (the inverse of ExportTables).
func NewRenamingFromTables(nodes []topo.NodeID, addrs []pkt.Addr, pfxs []pkt.Prefix) *Renaming {
	r := newRenaming()
	for i, n := range nodes {
		r.nodeNum[n] = uint32(i)
	}
	r.nodeInv = append(r.nodeInv, nodes...)
	for i, a := range addrs {
		r.addrNum[a] = uint32(i)
	}
	r.addrInv = append(r.addrInv, addrs...)
	for i, p := range pfxs {
		r.pfxNum[p] = uint32(i)
	}
	r.pfxInv = append(r.pfxInv, pfxs...)
	return r
}

// NodeAt returns the concrete node behind canonical number i, if any.
func (r *Renaming) NodeAt(i uint32) (topo.NodeID, bool) {
	if int(i) >= len(r.nodeInv) {
		return topo.NodeNone, false
	}
	return r.nodeInv[i], true
}

// AddrAt returns the concrete address behind canonical number i, if any.
func (r *Renaming) AddrAt(i uint32) (pkt.Addr, bool) {
	if int(i) >= len(r.addrInv) {
		return pkt.AddrNone, false
	}
	return r.addrInv[i], true
}

// PrefixAt returns the concrete prefix behind canonical number i, if any.
func (r *Renaming) PrefixAt(i uint32) (pkt.Prefix, bool) {
	if int(i) >= len(r.pfxInv) {
		return pkt.Prefix{}, false
	}
	return r.pfxInv[i], true
}

// Equal reports whether two renamings denote the same concrete namespace:
// identical node, address and prefix tables in canonical order. Consumers
// use it to distinguish a cache hit on the very same slice from a hit on
// an isomorphic-but-renamed one.
func (r *Renaming) Equal(o *Renaming) bool {
	if r == o {
		return true
	}
	if r == nil || o == nil {
		return false
	}
	return slices.Equal(r.nodeInv, o.nodeInv) && slices.Equal(r.addrInv, o.addrInv) && slices.Equal(r.pfxInv, o.pfxInv)
}

// TranslateNode carries a node from this renaming's namespace into to's:
// the node with the same canonical number. NodeNone passes through.
func (r *Renaming) TranslateNode(n topo.NodeID, to *Renaming) (topo.NodeID, bool) {
	if n == topo.NodeNone {
		return n, true
	}
	i, ok := r.nodeNum[n]
	if !ok {
		return topo.NodeNone, false
	}
	return to.NodeAt(i)
}

// TranslateAddr carries an address from this renaming's namespace into
// to's. AddrNone passes through.
func (r *Renaming) TranslateAddr(a pkt.Addr, to *Renaming) (pkt.Addr, bool) {
	if a == pkt.AddrNone {
		return a, true
	}
	i, ok := r.addrNum[a]
	if !ok {
		return pkt.AddrNone, false
	}
	return to.AddrAt(i)
}

// TranslatePrefix carries a prefix from this renaming's namespace into
// to's: the prefix with the same canonical number, which — given equal
// canonical keys — classifies to's address universe exactly as p
// classifies this one.
func (r *Renaming) TranslatePrefix(p pkt.Prefix, to *Renaming) (pkt.Prefix, bool) {
	i, ok := r.pfxNum[p]
	if !ok {
		return pkt.Prefix{}, false
	}
	return to.PrefixAt(i)
}

// TranslatePrefixByMatch carries a prefix between namespaces by
// behaviour rather than by name: it synthesizes a prefix that classifies
// to's address universe exactly as p classifies this one, using the
// positional address correspondence that equal canonical keys guarantee.
// This is the translation path for prefixes that were never interned —
// an invariant-level prefix (e.g. a Traversal source) against the
// invariant-independent encoding renaming — where TranslatePrefix must
// fail. Sound because every address a translated invariant is evaluated
// against is drawn from the target universe; reports false when no
// single prefix reproduces the classification.
func (r *Renaming) TranslatePrefixByMatch(p pkt.Prefix, to *Renaming) (pkt.Prefix, bool) {
	if len(r.addrInv) != len(to.addrInv) {
		return pkt.Prefix{}, false
	}
	if p.Len <= 0 {
		return pkt.Prefix{}, true // match-all is namespace-independent
	}
	var matched []pkt.Addr
	first := true
	var base, diff pkt.Addr
	for i, a := range r.addrInv {
		if !p.Matches(a) {
			continue
		}
		b := to.addrInv[i]
		matched = append(matched, b)
		if first {
			base, first = b, false
		} else {
			diff |= base ^ b
		}
	}
	var q pkt.Prefix
	if len(matched) == 0 {
		// p matches nothing in the universe: any host prefix outside to's
		// universe behaves identically. Pick the smallest free address.
		inUse := make(map[pkt.Addr]bool, len(to.addrInv))
		for _, a := range to.addrInv {
			inUse[a] = true
		}
		free := pkt.Addr(1)
		for inUse[free] {
			free++
		}
		return pkt.HostPrefix(free), true
	}
	// The longest common prefix of the matched target addresses.
	length := 32
	for diff != 0 {
		diff >>= 1
		length--
	}
	if length <= 0 {
		q = pkt.Prefix{}
	} else if length >= 32 {
		q = pkt.HostPrefix(base)
	} else {
		shift := uint(32 - length)
		q = pkt.Prefix{Addr: base >> shift << shift, Len: length}
	}
	// q covers every matched address by construction; it is behaviourally
	// equal to p iff it also excludes everything p excluded.
	for i, a := range r.addrInv {
		if !p.Matches(a) && q.Matches(to.addrInv[i]) {
			return pkt.Prefix{}, false
		}
	}
	return q, true
}

// TranslateHeader carries a packet header between namespaces.
func (r *Renaming) TranslateHeader(h pkt.Header, to *Renaming) (pkt.Header, bool) {
	return h.MapAddrs(func(a pkt.Addr) (pkt.Addr, bool) {
		return r.TranslateAddr(a, to)
	})
}

// TranslateEvents carries a violation witness from this renaming's
// namespace into to's, event for event. It reports false — callers must
// then fall back to solving directly — if any event references a name
// outside the renaming, which cannot happen for traces of a problem whose
// canonical key was built by this renaming (every event name is drawn from
// the serialized universe) but is checked rather than assumed.
func (r *Renaming) TranslateEvents(evs []logic.Event, to *Renaming) ([]logic.Event, bool) {
	if len(evs) == 0 {
		return nil, true
	}
	out := make([]logic.Event, len(evs))
	for i, ev := range evs {
		var ok bool
		switch ev.Kind {
		case logic.EvFail, logic.EvRecover:
			// Only failure events carry a subject node; snd/rcv leave the
			// field as zero-value filler that must not be interpreted.
			if ev.Node, ok = r.TranslateNode(ev.Node, to); !ok {
				return nil, false
			}
		default:
			if ev.Src, ok = r.TranslateNode(ev.Src, to); !ok {
				return nil, false
			}
			if ev.Dst, ok = r.TranslateNode(ev.Dst, to); !ok {
				return nil, false
			}
			if ev.Hdr, ok = r.TranslateHeader(ev.Hdr, to); !ok {
				return nil, false
			}
		}
		// Abstract packet classes are registry-global, not slice-local:
		// they pass through unrenamed (class bits appear raw in canonical
		// config keys, so classed boxes only share within equal classes).
		out[i] = ev
	}
	return out, true
}

// Canonizer builds the canonical key of one verification problem. Callers
// serialize the problem content through the writer methods in a fixed
// structural order — invariant slots first, then slice hosts, boxes with
// canonical configurations, and the packet alphabet — interning names in
// first-encounter order, and finish with Key, which appends the derived
// sections (address ownership, the transfer matrix, node kinds and
// liveness, prefix match tables) and returns the complete key.
//
// A Canonizer is single-use and not safe for concurrent use.
type Canonizer struct {
	t    *topo.Topology
	eng  *tf.Engine
	ren  *Renaming
	buf  []byte
	done bool
	// opaque: a box configuration spelled addresses no renaming reaches.
	opaque bool

	// Live memo, valid for the universe size it was computed
	// at (global firewalls re-test the same prefixes for every box and
	// both canonical keys of a check).
	pfxLive    map[pkt.Prefix]bool
	pfxLiveLen int
}

// NewCanonizer starts a canonical key for problems over the given topology
// and compiled transfer engine (whose failure scenario supplies liveness).
func NewCanonizer(t *topo.Topology, eng *tf.Engine) *Canonizer {
	return &Canonizer{t: t, eng: eng, ren: newRenaming(), buf: make([]byte, 0, 256)}
}

// Renaming returns the renaming built so far. It keeps growing until Key
// is called; callers hold it only after Key.
func (c *Canonizer) Renaming() *Renaming { return c.ren }

func (c *Canonizer) nodeID(n topo.NodeID) uint32 {
	if n == topo.NodeNone {
		return canonNone
	}
	if i, ok := c.ren.nodeNum[n]; ok {
		return i
	}
	i := uint32(len(c.ren.nodeInv))
	c.ren.nodeNum[n] = i
	c.ren.nodeInv = append(c.ren.nodeInv, n)
	return i
}

func (c *Canonizer) addrID(a pkt.Addr) uint32 {
	if a == pkt.AddrNone {
		return canonNone
	}
	if i, ok := c.ren.addrNum[a]; ok {
		return i
	}
	i := uint32(len(c.ren.addrInv))
	c.ren.addrNum[a] = i
	c.ren.addrInv = append(c.ren.addrInv, a)
	return i
}

func (c *Canonizer) pfxID(p pkt.Prefix) uint32 {
	if i, ok := c.ren.pfxNum[p]; ok {
		return i
	}
	i := uint32(len(c.ren.pfxInv))
	c.ren.pfxNum[p] = i
	c.ren.pfxInv = append(c.ren.pfxInv, p)
	return i
}

// Live implements mbox.KeyWriter: whether p matches any address interned
// so far. Callers serialize the complete address universe (invariant slots,
// host addresses, auxiliary and service addresses) before box
// configurations, so while a configuration is described this answers "can
// any packet of this slice ever fire an entry guarded by p". Results are
// memoized per universe size — the scan repeats for every box and for both
// canonical keys of a check.
func (c *Canonizer) Live(p pkt.Prefix) bool {
	if c.pfxLive == nil || c.pfxLiveLen != len(c.ren.addrInv) {
		c.pfxLive = make(map[pkt.Prefix]bool, 16)
		c.pfxLiveLen = len(c.ren.addrInv)
	}
	if live, ok := c.pfxLive[p]; ok {
		return live
	}
	live := false
	for _, a := range c.ren.addrInv {
		if p.Matches(a) {
			live = true
			break
		}
	}
	c.pfxLive[p] = live
	return live
}

// Byte appends a raw byte (section tags, booleans, small enums).
func (c *Canonizer) Byte(x byte) { c.buf = append(c.buf, x) }

// Text appends the bytes of s as Byte would, one call for all of them.
func (c *Canonizer) Text(s string) { c.buf = append(c.buf, s...) }

// Raw appends bytes that name nothing (the options prologue).
func (c *Canonizer) Raw(b []byte) { c.buf = append(c.buf, b...) }

// Uint appends an unsigned varint.
func (c *Canonizer) Uint(x uint64) { c.buf = binary.AppendUvarint(c.buf, x) }

// Node appends the canonical number of n, interning it on first encounter.
func (c *Canonizer) Node(n topo.NodeID) topo.NodeID {
	c.Uint(uint64(c.nodeID(n)))
	return n
}

// Addr appends the canonical number of a, interning it on first encounter.
func (c *Canonizer) Addr(a pkt.Addr) pkt.Addr {
	c.Uint(uint64(c.addrID(a)))
	return a
}

// Prefix appends the canonical number of p; the prefix's match behaviour
// over the final address universe is emitted by Key, so two keys agree only
// if their prefixes classify the slice's addresses identically.
func (c *Canonizer) Prefix(p pkt.Prefix) pkt.Prefix {
	c.Uint(uint64(c.pfxID(p)))
	return p
}

// Set implements mbox.KeyWriter. The sorted form is independent of supply
// order only for elements whose addresses are already interned (an element
// naming a new address numbers it at first encounter), which is why models
// put their configuration addresses in the universe (ServiceAddrs).
func (c *Canonizer) Set(n int, elem func(i int)) {
	c.Uint(uint64(n))
	mbox.SortSegments(&c.buf, n, elem)
}

// Opaque implements mbox.KeyWriter: addresses the canonizer cannot rename
// make the configuration, and so the problem, non-canonicalizable.
func (c *Canonizer) Opaque([]byte) { c.opaque = true }

// Header appends a packet header with its address fields renamed. Ports,
// protocol and content IDs are not topology-dependent and are emitted raw.
func (c *Canonizer) Header(h pkt.Header) {
	c.Addr(h.Src)
	c.Addr(h.Dst)
	c.Uint(uint64(h.SrcPort))
	c.Uint(uint64(h.DstPort))
	c.Byte(byte(h.Proto))
	c.Addr(h.Origin)
	c.Uint(uint64(h.ContentID))
	c.Addr(h.Tunnel)
}

// PutBoxConfig appends the canonical (renamed) configuration key of a
// middlebox model — its description written through this canonizer —
// length-framed. It reports false when the model has no description or
// describes addresses opaquely: such boxes opt out of cross-slice classing,
// so the caller abandons the whole canonicalization.
func (c *Canonizer) PutBoxConfig(m mbox.Model) bool {
	outer := c.buf
	c.buf = nil
	ok := mbox.WriteConfig(c, m) && !c.opaque
	seg := c.buf
	c.buf = outer
	if ok {
		c.Uint(uint64(len(seg)))
		c.buf = append(c.buf, seg...)
	}
	return ok
}

// Key finalizes and returns the canonical key: the serialized problem
// content followed by the derived behavioural sections —
//
//   - 'O': for each universe address in canonical order, the canonical
//     number of its owning host/external node (or the none marker);
//   - 'M': the transfer matrix — for every universe edge node (the row set
//     grows as matrix cells surface packets at new edge nodes, and the loop
//     runs to fixpoint) × every universe address, where the packet next
//     surfaces: an edge node's canonical number, a drop marker, or a
//     loop-error marker;
//   - 'N': each universe node's kind and liveness under the scenario;
//   - 'P': each interned prefix's length and match bitvector over the
//     canonical address universe.
//
// Together with the caller-serialized content this pins down everything
// either verification engine reads: equal keys ⇒ the renamings compose to
// a bijection under which the problems are byte-identical.
//
// Key must be called exactly once; the Canonizer is spent afterwards.
func (c *Canonizer) Key() []byte {
	if c.done {
		panic("slices: Canonizer.Key called twice")
	}
	c.done = true

	// Address ownership. Owners may be nodes not yet interned (an address
	// owned by a host outside the slice); interning here gives them rows in
	// the matrix below.
	c.Byte('O')
	c.Uint(uint64(len(c.ren.addrInv)))
	for ai := 0; ai < len(c.ren.addrInv); ai++ {
		if n, ok := c.t.HostByAddr(c.ren.addrInv[ai]); ok {
			c.Node(n.ID)
		} else {
			c.Uint(uint64(canonNone))
		}
	}

	// Transfer matrix. Cells may intern newly surfaced edge nodes, growing
	// nodeInv; the loop picks them up, so the row set is the final node
	// universe. Rows are emitted for edge nodes only (walks cannot start at
	// switches); which indices are edge nodes is pinned by section 'N'.
	c.Byte('M')
	c.Uint(uint64(len(c.ren.addrInv)))
	for ni := 0; ni < len(c.ren.nodeInv); ni++ {
		id := c.ren.nodeInv[ni]
		if !c.t.Node(id).IsEdge() {
			continue
		}
		for ai := 0; ai < len(c.ren.addrInv); ai++ {
			next, ok, err := c.eng.Next(id, c.ren.addrInv[ai])
			switch {
			case err != nil:
				c.Uint(uint64(cellErr))
			case !ok:
				c.Uint(uint64(cellDrop))
			default:
				c.Node(next)
			}
		}
	}

	// Node kinds and liveness, in final canonical order.
	c.Byte('N')
	c.Uint(uint64(len(c.ren.nodeInv)))
	fail := c.eng.Failure()
	for _, id := range c.ren.nodeInv {
		live := byte(0)
		if fail.Failed(id) {
			live = 1
		}
		c.Byte(byte(c.t.Node(id).Kind))
		c.Byte(live)
	}

	// Prefix match tables: length plus match bitvector over the address
	// universe. A prefix IS its match behaviour as far as the engines are
	// concerned (rules, ACLs and invariant predicates only ever test
	// universe addresses against it); the length is kept because rule
	// selection breaks priority ties by longest prefix.
	c.Byte('P')
	c.Uint(uint64(len(c.ren.pfxInv)))
	for _, p := range c.ren.pfxInv {
		c.Byte(byte(p.Len))
		var cur byte
		for ai, a := range c.ren.addrInv {
			if p.Matches(a) {
				cur |= 1 << uint(ai%8)
			}
			if ai%8 == 7 {
				c.Byte(cur)
				cur = 0
			}
		}
		if len(c.ren.addrInv)%8 != 0 {
			c.Byte(cur)
		}
	}
	return c.buf
}
