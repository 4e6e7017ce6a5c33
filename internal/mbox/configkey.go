package mbox

// Middlebox configuration keys. AppendKey (key.go) fingerprints a box's
// mutable *state*; the keys here fingerprint its *configuration* — the ACLs,
// address pools and class sets Process consults but never mutates. A model
// describes its configuration ONCE, by walking it through a KeyWriter
// (DescribeConfig), and each writer turns the walk into one key (DESIGN.md,
// "Keys"): the exact key keeps every entry under its concrete name (equal
// keys ⇔ equal configurations); the read key keeps, of the match lists, only
// the entries live on a given address universe U (equal keys over U ⇒
// identical behaviour on every packet whose addresses all lie in U — U is
// the slice's complete alphabet, slices.ReadSet.Universe); the canonical
// key (internal/slices.Canonizer) drops the same dead entries and replaces
// names by canonical numbers (equal keys ⇒ the configurations agree modulo
// the slices' renaming).
//
// Encodings are tagged by model type and length-framed, so distinct
// configurations never collide; ACL entries keep evaluation order because
// first-match-wins makes it significant. Abstract class bits are written
// raw: the class registry is network-global, so classes are not renamed.

import (
	"encoding/binary"
	"sort"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// KeyWriter is what a configuration is described to. Addr and Prefix return
// their argument (inv.SlotWriter shares the methods, and its translating
// implementation returns the renamed name); descriptions ignore the result.
type KeyWriter interface {
	// Byte writes a byte no renaming touches: tags, booleans, ports, class
	// bits. Text writes the bytes of s the same way, in one call: names and
	// type names. Uint writes a count.
	Byte(x byte)
	Text(s string)
	Uint(x uint64)
	Addr(a pkt.Addr) pkt.Addr
	Prefix(p pkt.Prefix) pkt.Prefix
	// Live reports whether an entry guarded by p can fire on the universe
	// the key is taken over: some universe address matches p. Every packet
	// either engine routes carries only universe addresses, so descriptions
	// skip entries that are not live. Always true for the exact key.
	Live(p pkt.Prefix) bool
	// Set writes n elements as an unordered collection: elem(i) describes
	// element i and the writer emits the encodings sorted, so the key does
	// not depend on the order the elements were supplied in.
	Set(n int, elem func(i int))
	// Opaque writes bytes that spell concrete addresses in a form the
	// writer cannot see. A renaming writer has no canonical form for them
	// and abandons its key.
	Opaque(b []byte)
}

// ConfigDescriber is implemented by models whose configuration has keys:
// DescribeConfig walks everything Process consults through w. A model
// without it (a custom Go model) is never memoized, verdict-cached or
// canonically classed, and dirties at node granularity — sound fallbacks,
// not errors.
type ConfigDescriber interface {
	DescribeConfig(w KeyWriter)
}

// WriteConfig describes m's configuration to w; false (nothing written)
// when m has no description.
func WriteConfig(w KeyWriter, m Model) bool {
	d, ok := m.(ConfigDescriber)
	if ok {
		d.DescribeConfig(w)
	}
	return ok
}

// ExactKey appends m's exact configuration key to b.
func ExactKey(b []byte, m Model) ([]byte, bool) {
	k := Key{B: b}
	ok := WriteConfig(&k, m)
	return k.B, ok
}

// ReadKey appends m's read key over universe to b.
func ReadKey(b []byte, m Model, universe topo.AtomSet) ([]byte, bool) {
	k := Key{B: b, universe: &universe}
	ok := WriteConfig(&k, m)
	return k.B, ok
}

// Key is the writer of exact and read keys (and of an invariant's exact
// slots, internal/inv): nodes as varints, addresses as four big-endian
// bytes, prefixes as address plus length byte, appended to B.
type Key struct {
	B        []byte
	universe *topo.AtomSet // nil: the exact key, every entry live
}

func (k *Key) Byte(x byte)   { k.B = append(k.B, x) }
func (k *Key) Text(s string) { k.B = append(k.B, s...) }
func (k *Key) Uint(x uint64) { k.B = binary.AppendUvarint(k.B, x) }

func (k *Key) Node(n topo.NodeID) topo.NodeID {
	k.B = binary.AppendVarint(k.B, int64(n))
	return n
}

func (k *Key) Addr(a pkt.Addr) pkt.Addr {
	k.B = binary.BigEndian.AppendUint32(k.B, uint32(a))
	return a
}

func (k *Key) Prefix(p pkt.Prefix) pkt.Prefix {
	k.B = append(binary.BigEndian.AppendUint32(k.B, uint32(p.Addr)), byte(p.Len))
	return p
}

func (k *Key) Live(p pkt.Prefix) bool {
	return k.universe == nil || k.universe.IntersectsPrefix(p)
}

func (k *Key) Set(n int, elem func(i int)) {
	k.Uint(uint64(n))
	SortSegments(&k.B, n, elem)
}

func (k *Key) Opaque(b []byte) { k.B = append(binary.AppendUvarint(k.B, uint64(len(b))), b...) }

// SortSegments is KeyWriter.Set for a writer that appends to *buf: each
// elem(i) appends one encoding, and the n encodings are left in bytewise
// order.
func SortSegments(buf *[]byte, n int, elem func(i int)) {
	start := len(*buf)
	segs := make([]string, n)
	for i := range segs {
		elem(i)
		segs[i] = string((*buf)[start:])
		*buf = (*buf)[:start]
	}
	sort.Strings(segs)
	for _, seg := range segs {
		*buf = append(*buf, seg...)
	}
}

// PutString writes a length-framed string of bytes no renaming touches.
func PutString(w KeyWriter, s string) {
	w.Uint(uint64(len(s)))
	w.Text(s)
}

// putFixed writes the low n bytes of x, big-endian.
func putFixed(w KeyWriter, x uint64, n int) {
	for n--; n >= 0; n-- {
		w.Byte(byte(x >> (8 * uint(n))))
	}
}

func putBool(w KeyWriter, v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// putClass writes an optional abstract class.
func putClass(w KeyWriter, has bool, c pkt.Class) {
	if !has {
		c = 0
	}
	putBool(w, has)
	w.Byte(byte(c))
}

// putPrefixes writes the live members of a match list, in order.
func putPrefixes(w KeyWriter, ps []pkt.Prefix) {
	n := 0
	for _, p := range ps {
		if w.Live(p) {
			n++
		}
	}
	w.Uint(uint64(n))
	for _, p := range ps {
		if w.Live(p) {
			w.Prefix(p)
		}
	}
}

// putACL writes the live entries of an ACL — those whose source AND
// destination prefixes are each live, the only entries first-match-wins
// evaluation can select for a packet of the universe — in evaluation order.
// Dropping the dead ones is what makes slices that see the same effective
// policy key alike when the configured ACL text differs (the per-pair rules
// of a global firewall).
func putACL(w KeyWriter, acl []ACLEntry) {
	live := func(e ACLEntry) bool { return w.Live(e.Src) && w.Live(e.Dst) }
	n := 0
	for _, e := range acl {
		if live(e) {
			n++
		}
	}
	w.Uint(uint64(n))
	for _, e := range acl {
		if live(e) {
			w.Prefix(e.Src)
			w.Prefix(e.Dst)
			w.Byte(byte(e.Action))
		}
	}
}

// DescribeConfig implements ConfigDescriber: the firewall consults the
// first live entry matching (src, dst) and the default policy.
func (f *LearningFirewall) DescribeConfig(w KeyWriter) {
	w.Byte('F')
	putACL(w, f.ACL)
	putBool(w, f.DefaultAllow)
}

// DescribeConfig implements ConfigDescriber: every packet consults the
// public address and port base.
func (n *NAT) DescribeConfig(w KeyWriter) {
	w.Byte('N')
	w.Addr(n.NATAddr)
	putFixed(w, uint64(n.PortBase), 2)
}

// DescribeConfig implements ConfigDescriber: the cache consults the first
// live serve-policy entry and the default.
func (c *ContentCache) DescribeConfig(w KeyWriter) {
	w.Byte('C')
	putACL(w, c.ACL)
	putBool(w, c.DefaultServe)
}

// DescribeConfig implements ConfigDescriber: only a watched prefix covering
// a universe address can flag a packet; the scrubber address and class bits
// are consulted unconditionally.
func (d *IDPS) DescribeConfig(w KeyWriter) {
	w.Byte('I')
	w.Addr(d.Scrubber)
	putPrefixes(w, d.Watched)
	putClass(w, d.HasClass, d.MalClass)
}

// DescribeConfig implements ConfigDescriber.
func (s *Scrubber) DescribeConfig(w KeyWriter) {
	w.Byte('S')
	putClass(w, s.HasClass, s.AttackClass)
}

// DescribeConfig implements ConfigDescriber: every flow consults the VIP
// and the backend pool.
func (l *LoadBalancer) DescribeConfig(w KeyWriter) {
	w.Byte('L')
	w.Addr(l.VIP)
	w.Uint(uint64(len(l.Backends)))
	for _, a := range l.Backends {
		w.Addr(a)
	}
}

// DescribeConfig implements ConfigDescriber.
func (p *Passthrough) DescribeConfig(w KeyWriter) {
	w.Byte('P')
	PutString(w, p.TypeName)
}

// DescribeConfig implements ConfigDescriber.
func (f *AppFirewall) DescribeConfig(w KeyWriter) {
	w.Byte('A')
	putFixed(w, uint64(f.Blocked), 8)
}

// DescribeConfig implements ConfigDescriber.
func (o *WANOptimizer) DescribeConfig(w KeyWriter) { w.Byte('W') }

// ServiceAddrs reports the NAT's public address: rewritten and return
// traffic is routed on it, so read-set enumeration
// (internal/slices.ComputeReadSet) must walk the fabric toward it.
func (n *NAT) ServiceAddrs() []pkt.Addr { return []pkt.Addr{n.NATAddr} }

// ServiceAddrs reports the load balancer's virtual IP and backend pool for
// touched-element enumeration.
func (l *LoadBalancer) ServiceAddrs() []pkt.Addr {
	return append([]pkt.Addr{l.VIP}, l.Backends...)
}
