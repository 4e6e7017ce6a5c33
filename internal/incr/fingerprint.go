package incr

// Canonical slice fingerprints for the verdict cache. A fingerprint
// captures everything the verdict of one (invariant, scenario) check is a
// function of: the verification options, the invariant's own parameters,
// the effective failure scenario, the computed slice (hosts with their
// addresses, middlebox instances with their configuration fingerprints),
// and the forwarding entries of every touched element. Equal fingerprints
// ⇒ the engines are handed byte-identical problems ⇒ equal verdicts, so a
// cached report can be returned without re-solving. All segments are
// length-framed or fixed-width (the AppendKey idiom of internal/mbox and
// internal/explore), making the encoding injective; the cache hashes it
// with FNV-1a 64 and keeps the full key for collision verification.

import (
	"encoding/binary"
	"math"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

func appendAddr(b []byte, a pkt.Addr) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(a))
}

func appendPrefix(b []byte, p pkt.Prefix) []byte {
	b = appendAddr(b, p.Addr)
	return append(b, byte(p.Len))
}

func appendNode(b []byte, n topo.NodeID) []byte {
	return binary.AppendVarint(b, int64(n))
}

// appendInvariantKey encodes the invariant's identity and parameters.
// Unknown invariant types are not canonically encodable and make the
// check uncacheable (sound: it simply always re-solves).
func appendInvariantKey(b []byte, i inv.Invariant) ([]byte, bool) {
	switch v := i.(type) {
	case inv.SimpleIsolation:
		b = append(b, 'i')
		b = appendNode(b, v.Dst)
		return appendAddr(b, v.SrcAddr), true
	case inv.Reachability:
		b = append(b, 'r')
		b = appendNode(b, v.Dst)
		return appendAddr(b, v.SrcAddr), true
	case inv.FlowIsolation:
		b = append(b, 'f')
		b = appendNode(b, v.Dst)
		return appendAddr(b, v.SrcAddr), true
	case inv.DataIsolation:
		b = append(b, 'd')
		b = appendNode(b, v.Dst)
		return appendAddr(b, v.Origin), true
	case inv.Traversal:
		b = append(b, 't')
		b = appendNode(b, v.Dst)
		b = appendPrefix(b, v.SrcPrefix)
		b = appendAddr(b, v.SrcAddr)
		b = binary.AppendUvarint(b, uint64(len(v.Vias)))
		for _, m := range v.Vias {
			b = appendNode(b, m)
		}
		return b, true
	default:
		return nil, false
	}
}

// fingerprint builds the verdict-cache key for one (invariant, scenario)
// check over the given slice. tabs must be the forwarding state of the
// effective scenario; touched must be slices.Touched for sl. ok is false
// when any component is not canonically encodable (unknown invariant type
// or a middlebox model without a configuration fingerprint).
func fingerprint(i inv.Invariant, sc topo.FailureScenario, sl slices.Result,
	touched []topo.NodeID, tabs *tf.Tables, t *topo.Topology, opts core.Options) ([]byte, bool) {

	b := make([]byte, 0, 256)

	// Verification options the verdict depends on.
	b = append(b, byte(opts.Engine))
	b = binary.AppendUvarint(b, uint64(opts.MaxSends))
	if opts.NoSlices {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, opts.Seed)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(opts.RandomBranchFreq))
	b = binary.AppendVarint(b, opts.MaxConflicts)
	b = binary.AppendUvarint(b, uint64(opts.MaxStates))

	var ok bool
	b, ok = appendInvariantKey(b, i)
	if !ok {
		return nil, false
	}

	if sl.Whole {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(sl.Hosts)))
	for _, h := range sl.Hosts {
		b = appendNode(b, h)
		b = appendAddr(b, t.Node(h).Addr)
	}
	b = binary.AppendUvarint(b, uint64(len(sl.Boxes)))
	var seg []byte
	for _, box := range sl.Boxes {
		b = appendNode(b, box.Node)
		ck, isKeyer := box.Model.(mbox.ConfigKeyer)
		if !isKeyer {
			return nil, false
		}
		seg = ck.AppendConfigKey(seg[:0])
		b = binary.AppendUvarint(b, uint64(len(seg)))
		b = append(b, seg...)
	}

	// Forwarding entries and liveness of every touched element, in sorted
	// node order, rules in table order (ties break positionally in tf).
	// The failure scenario enters the key only through touched nodes:
	// engines consult liveness of slice boxes and on-walk switches only,
	// both inside the footprint, so failures elsewhere must not (and do
	// not) perturb the fingerprint.
	b = binary.AppendUvarint(b, uint64(len(touched)))
	for _, n := range touched {
		b = appendNode(b, n)
		if sc.Failed(n) {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		rules := tabs.Rules(n)
		b = binary.AppendUvarint(b, uint64(len(rules)))
		for _, r := range rules {
			b = appendPrefix(b, r.Match)
			b = appendNode(b, r.In)
			b = appendNode(b, r.Out)
			b = binary.AppendVarint(b, int64(r.Priority))
		}
	}
	return b, true
}
