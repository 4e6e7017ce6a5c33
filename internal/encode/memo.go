package encode

// Journey-enumeration memoization. Enumerating a sample's journeys
// (symbolic execution through the fabric and middleboxes, forking on state
// reads) depends only on the failure scenario, the middlebox set and the
// sample — not on the invariant being checked. Different invariants over
// the same slice therefore reground identical journeys; a JourneyCache
// shares them across Verify calls. An entry holds a sample's journeys under
// every class assignment: one enumeration shared by all of them when the
// class set only labels the journeys, one per assignment otherwise (see
// sampleJourneys). The incremental verifier makes repeated same-slice
// solves the common case, which is what this cache targets (see DESIGN.md).

import (
	"encoding/binary"
	"sync"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/lru"
	"github.com/netverify/vmn/internal/mbox"
)

// JourneyCache memoizes journey enumeration across Verify calls over one
// fixed topology (the lifetime scope of a core.Verifier, the intended
// owner). A problem's key embeds the transfer engine's behaviour
// fingerprint and the configuration fingerprints of every middlebox, so
// forwarding-state or configuration mutations between calls miss cleanly
// instead of returning stale journeys; problems containing a middlebox
// without a configuration description (mbox.ExactKey reports false) skip
// memoization entirely. Each encoding interns its problem key once, and
// its samples are then looked up by a fixed-size journeyKey. Safe for
// concurrent use, and single-flight per problem (see sets). Cached paths
// are handed out shared; Verify treats them as immutable.
type JourneyCache struct {
	mu sync.Mutex
	// problems interns full problem keys, under ids that are never reused:
	// a problem evicted here comes back under a fresh id, so its journeys
	// are enumerated again, and no id ever names two problems.
	problems     *lru.Cache[string, *journeyProblem]
	lastID       uint64
	m            *lru.Cache[journeyKey, journeySet]
	hits, misses int64
}

// journeyProblem is an interned problem key: its id, and the lock held by
// the one asker enumerating its samples.
type journeyProblem struct {
	id uint64
	mu sync.Mutex
}

// journeyKey names one sample's journeys: the interned problem and the
// sample.
type journeyKey struct {
	problem uint64
	sample  inv.Sample
}

// journeySet is one sample's journeys: paths[0] serves every class
// assignment when shared, paths[i] the i-th assignment otherwise.
type journeySet struct {
	paths  [][]jpath
	shared bool
}

// journeyCacheCap and journeyProblemCap bound the cache's journey sets and
// interned problem keys (DESIGN.md, "Bounded memory").
const journeyCacheCap, journeyProblemCap = 1 << 16, 1 << 10

// NewJourneyCache creates an empty cache.
func NewJourneyCache() *JourneyCache {
	return &JourneyCache{
		problems: lru.New[string, *journeyProblem](journeyProblemCap, nil),
		m:        lru.New[journeyKey, journeySet](journeyCacheCap, nil),
	}
}

// problem returns the problem key's interned entry, interning it on first
// use.
func (c *JourneyCache) problem(key []byte) *journeyProblem {
	c.mu.Lock()
	defer c.mu.Unlock()
	pr, ok := c.problems.Get(string(key))
	if !ok {
		c.lastID++
		pr = &journeyProblem{id: c.lastID}
		c.problems.Put(string(key), pr)
	}
	return pr
}

// Len is the number of sample journey sets held.
func (c *JourneyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Len()
}

// Stats reports cache hits and misses so far, one per sample looked up.
func (c *JourneyCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// sets returns the journeys of each of pr's samples, cached or from
// enumerate, caching each success. It holds pr's lock throughout, so
// concurrent askers for one problem wait, then find the journeys cached
// as hits; after a failed enumeration, the next asker enumerates what is
// missing.
func (c *JourneyCache) sets(pr *journeyProblem, samples []inv.Sample, enumerate func(inv.Sample) (journeySet, error)) ([]journeySet, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	out := make([]journeySet, len(samples))
	for i, s := range samples {
		key := journeyKey{pr.id, s}
		c.mu.Lock()
		set, ok := c.m.Get(key)
		if ok {
			c.hits++
		} else {
			c.misses++
		}
		c.mu.Unlock()
		if !ok {
			var err error
			if set, err = enumerate(s); err != nil {
				return nil, err
			}
			c.mu.Lock()
			c.m.Put(key, set)
			c.mu.Unlock()
		}
		out[i] = set
	}
	return out, nil
}

// appendProblemKey encodes the per-problem part of a journey key: the
// transfer engine's behaviour fingerprint (forwarding state + failure
// scenario) and the ordered middlebox node list with per-box configuration
// fingerprints (p.Boxes is sorted by node for sliced problems, and box
// order determines the keyRef box indices inside jpaths, so the order must
// be part of the key). ok is false when some box has no configuration
// fingerprint — such problems must not be memoized, because a
// reconfiguration would not perturb the key.
func appendProblemKey(b []byte, p *inv.Problem) ([]byte, bool) {
	b = binary.BigEndian.AppendUint64(b, p.TF.Fingerprint())
	fail := p.Scenario.Nodes()
	b = binary.AppendUvarint(b, uint64(len(fail)))
	for _, n := range fail {
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Boxes)))
	var seg []byte
	for _, box := range p.Boxes {
		b = binary.AppendVarint(b, int64(box.Node))
		var ok bool
		if seg, ok = mbox.ExactKey(seg[:0], box.Model); !ok {
			return nil, false
		}
		b = binary.AppendUvarint(b, uint64(len(seg)))
		b = append(b, seg...)
	}
	return b, true
}

// AppendEncodingKey appends the canonical content key of the build-once
// slice encoding for p: everything NewSliceEncoding's output is a function
// of — the journey problem key (transfer-engine behaviour fingerprint,
// failure scenario, ordered middleboxes with configuration fingerprints),
// the schedule bound, the conflict budget and grounding mode, and the full
// ordered (sample, class assignment) alphabet.
// Like the journey keys it assumes one fixed topology per cache (the
// core.Verifier scope, whose address→host mapping is invariant). ok is
// false when some middlebox lacks a configuration fingerprint; such
// encodings must not be reused, since a reconfiguration would not perturb
// the key.
func AppendEncodingKey(b []byte, p *inv.Problem, opts Options) ([]byte, bool) {
	b, ok := appendProblemKey(b, p)
	if !ok {
		return nil, false
	}
	b = binary.AppendUvarint(b, uint64(p.MaxSends))
	b = binary.AppendVarint(b, opts.MaxConflicts)
	if opts.GroundAllReadKeys {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	// The choice alphabet is the samples × class-assignments cross product
	// in deterministic nested order, so keying the two lists separately
	// (S+C entries) captures exactly the content of the S*C choices.
	b = binary.AppendUvarint(b, uint64(len(p.Samples)))
	for _, s := range p.Samples {
		b = appendSampleKey(b, s)
	}
	cls := p.ClassAssignments()
	b = binary.AppendUvarint(b, uint64(len(cls)))
	for _, cl := range cls {
		b = binary.BigEndian.AppendUint64(b, uint64(cl))
	}
	return b, true
}

// appendSampleKey encodes one sample: sender plus full header.
func appendSampleKey(b []byte, s inv.Sample) []byte {
	b = binary.AppendVarint(b, int64(s.Sender))
	b = binary.BigEndian.AppendUint32(b, uint32(s.Hdr.Src))
	b = binary.BigEndian.AppendUint32(b, uint32(s.Hdr.Dst))
	b = binary.BigEndian.AppendUint16(b, uint16(s.Hdr.SrcPort))
	b = binary.BigEndian.AppendUint16(b, uint16(s.Hdr.DstPort))
	b = append(b, byte(s.Hdr.Proto))
	b = binary.BigEndian.AppendUint32(b, uint32(s.Hdr.Origin))
	b = binary.BigEndian.AppendUint32(b, s.Hdr.ContentID)
	return binary.BigEndian.AppendUint32(b, uint32(s.Hdr.Tunnel))
}
