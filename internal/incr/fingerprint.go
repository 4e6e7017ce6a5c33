package incr

// Canonical slice fingerprints for the verdict cache. A fingerprint
// captures everything the verdict of one (invariant, scenario) check is a
// function of: the verification options, the invariant's own parameters,
// the effective failure scenario, the computed slice (hosts with their
// addresses, middlebox instances with their configuration fingerprints),
// and the forwarding entries of every touched element. Equal fingerprints
// ⇒ the engines are handed byte-identical problems ⇒ equal verdicts, so a
// cached report can be returned without re-solving. The options prologue
// is core.Options.AppendVerdictKey, the invariant is its slots
// (inv.Slotted) and each box its exact key (mbox.ExactKey), all written
// through one mbox.Key; every segment is length-framed or fixed-width,
// making the encoding injective. The cache keys on the whole encoding, so
// no two checks can share an entry.

import (
	"encoding/binary"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// fingerprint builds the verdict-cache key for one (invariant, scenario)
// check over the given slice. tabs must be the forwarding state of the
// effective scenario; touched must be the read-set Nodes of sl. ok is false
// when any component has no key (an invariant type without slots or a
// middlebox model without a configuration description).
func fingerprint(i inv.Invariant, sc topo.FailureScenario, sl slices.Result,
	touched []topo.NodeID, tabs *tf.Tables, t *topo.Topology, opts core.Options) ([]byte, bool) {

	si, ok := i.(inv.Slotted)
	if !ok {
		return nil, false
	}
	k := mbox.Key{B: opts.AppendVerdictKey(make([]byte, 0, 256))}
	si.Slots(&k)

	if sl.Whole {
		k.Byte(1)
	} else {
		k.Byte(0)
	}
	k.Uint(uint64(len(sl.Hosts)))
	for _, h := range sl.Hosts {
		k.Node(h)
		k.Addr(t.Node(h).Addr)
	}
	k.Uint(uint64(len(sl.Boxes)))
	var seg []byte
	for _, box := range sl.Boxes {
		k.Node(box.Node)
		if seg, ok = mbox.ExactKey(seg[:0], box.Model); !ok {
			return nil, false
		}
		k.Opaque(seg)
	}

	// Forwarding entries and liveness of every touched element, in sorted
	// node order, rules in table order (ties break positionally in tf).
	// The failure scenario enters the key only through touched nodes:
	// engines consult liveness of slice boxes and on-walk switches only,
	// both inside the footprint, so failures elsewhere must not (and do
	// not) perturb the fingerprint.
	k.Uint(uint64(len(touched)))
	for _, n := range touched {
		k.Node(n)
		if sc.Failed(n) {
			k.Byte(1)
		} else {
			k.Byte(0)
		}
		rules := tabs.Rules(n)
		k.Uint(uint64(len(rules)))
		for _, r := range rules {
			k.Prefix(r.Match)
			k.Node(r.In)
			k.Node(r.Out)
			k.B = binary.AppendVarint(k.B, int64(r.Priority))
		}
	}
	return k.B, true
}
