package incr

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

func pfx(s string, l int) pkt.Prefix { return pkt.Prefix{Addr: pkt.MustParseAddr(s), Len: l} }

func rule(p pkt.Prefix, out topo.NodeID, prio int) tf.Rule {
	return tf.Rule{Match: p, In: topo.NodeNone, Out: out, Priority: prio}
}

// TestFIBDeltaDirtyFor pins the per-atom dirtiness predicate: an atom is
// dirty iff the ordered subsequence of rules matching it differs between
// the old and new table.
func TestFIBDeltaDirtyFor(t *testing.T) {
	deflt := rule(pkt.Prefix{}, 1, 1)
	r0 := rule(pfx("10.0.0.0", 24), 2, 10)
	r1 := rule(pfx("10.1.0.0", 24), 3, 10)
	a0 := pkt.MustParseAddr("10.0.0.7")
	a1 := pkt.MustParseAddr("10.1.0.7")
	a2 := pkt.MustParseAddr("10.2.0.7")

	atoms := func(as ...pkt.Addr) topo.AtomSet { return topo.NewAtomSet(as) }
	dirtyFor := func(d *fibDelta, set topo.AtomSet) bool {
		_, dirty := d.dirtyAtom(set)
		return dirty
	}

	// Adding a more-specific rule over a covering default dirties exactly
	// the atoms the new prefix covers (the negative-read case).
	d := newFIBDelta(tf.NewTableDelta(0, []tf.Rule{deflt}, []tf.Rule{r0, deflt}))
	if !dirtyFor(d, atoms(a0)) {
		t.Fatal("atom under the new prefix must be dirty")
	}
	if dirtyFor(d, atoms(a1)) || dirtyFor(d, atoms(a2)) {
		t.Fatal("atoms outside the new prefix must stay clean")
	}

	// Removing an unrelated rule leaves other atoms' subsequences intact
	// even though every position shifted.
	d = newFIBDelta(tf.NewTableDelta(0, []tf.Rule{r0, r1, deflt}, []tf.Rule{r1, deflt}))
	if !dirtyFor(d, atoms(a0)) {
		t.Fatal("atom of the removed rule must be dirty")
	}
	if dirtyFor(d, atoms(a1)) || dirtyFor(d, atoms(a2)) {
		t.Fatal("shifted-but-identical subsequences must stay clean")
	}

	// Reordering two rules that both match an atom dirties it (first-match
	// semantics), while atoms matching neither stay clean.
	wide := rule(pfx("10.0.0.0", 16), 4, 10)
	d = newFIBDelta(tf.NewTableDelta(0, []tf.Rule{r0, wide, deflt}, []tf.Rule{wide, r0, deflt}))
	if !dirtyFor(d, atoms(a0)) {
		t.Fatal("reorder of matching rules must dirty the atom")
	}
	if dirtyFor(d, atoms(a2)) {
		t.Fatal("reorder outside the atom's matches must stay clean")
	}

	// A priority change on a matching rule dirties (the rule differs).
	r0hot := rule(pfx("10.0.0.0", 24), 2, 50)
	d = newFIBDelta(tf.NewTableDelta(0, []tf.Rule{r0, deflt}, []tf.Rule{r0hot, deflt}))
	if !dirtyFor(d, atoms(a0)) {
		t.Fatal("priority change must dirty the matching atom")
	}

	// Identical tables produce an empty prescreen and no dirt at all.
	d = newFIBDelta(tf.NewTableDelta(0, []tf.Rule{r0, deflt}, []tf.Rule{r0, deflt}))
	if len(d.changed) != 0 || dirtyFor(d, atoms(a0, a1, a2)) {
		t.Fatalf("identical tables must be clean (changed=%v)", d.changed)
	}
}

func TestEqualMatching(t *testing.T) {
	deflt := rule(pkt.Prefix{}, 1, 1)
	r0 := rule(pfx("10.0.0.0", 24), 2, 10)
	a0 := pkt.MustParseAddr("10.0.0.7")
	if !equalMatching([]tf.Rule{r0, deflt}, []tf.Rule{r0, deflt}, a0) {
		t.Fatal("identical lists must match")
	}
	if equalMatching([]tf.Rule{deflt}, []tf.Rule{r0, deflt}, a0) {
		t.Fatal("extra matching rule in new must differ")
	}
	if equalMatching([]tf.Rule{r0, deflt}, []tf.Rule{deflt}, a0) {
		t.Fatal("missing matching rule in new must differ")
	}
	other := rule(pfx("10.5.0.0", 16), 9, 99)
	if !equalMatching([]tf.Rule{r0, deflt}, []tf.Rule{other, r0, other, deflt}, a0) {
		t.Fatal("non-matching rules interleaved must not affect equality")
	}
}

// positionalFIBDelta is the delta newFIBDelta used to build, kept as the
// reference: the prefixes of every rule that is not positionally
// identical between the two lists.
func positionalFIBDelta(old, new []tf.Rule) *fibDelta {
	d := &fibDelta{oldRules: old, newRules: new}
	for i := 0; i < max(len(old), len(new)); i++ {
		if i < len(old) && (i >= len(new) || old[i] != new[i]) {
			d.changed = append(d.changed, old[i].Match)
		}
		if i < len(new) && (i >= len(old) || old[i] != new[i]) {
			d.changed = append(d.changed, new[i].Match)
		}
	}
	return d
}

// TestFIBDeltaNamesTheEdit: trimming the lists' common head and tail
// leaves one inserted or removed rule as the only prefix a delta names,
// wherever it sits in a 128-rule table — the positional diff would name
// every rule it shifted.
func TestFIBDeltaNamesTheEdit(t *testing.T) {
	table := make([]tf.Rule, 128)
	for i := range table {
		table[i] = rule(pkt.Prefix{Addr: pkt.Addr(20<<24 | uint32(i)<<8), Len: 24}, 1, 10)
	}
	edit := rule(pfx("30.0.0.0", 24), 2, 10)
	for _, at := range []int{0, 1, 64, 127, 128} {
		grown := slices.Insert(slices.Clone(table), at, edit)
		for _, td := range []tf.TableDelta{tf.NewTableDelta(0, table, grown), tf.NewTableDelta(0, grown, table)} {
			if got := newFIBDelta(td).changed; len(got) != 1 || got[0] != edit.Match {
				t.Fatalf("one rule at %d of %d (old %d, new %d rules) names %v", at, len(table), len(td.Old), len(td.New), got)
			}
		}
	}
}

// FuzzTrimmedDelta is the soundness argument for the head/tail trim as a
// property: on random rule-list pairs — nested prefixes, two priorities,
// so lists are full of rules that tie — the trimmed delta gives the
// positional one's dirtyAtom verdict and witness for every atom alone and
// for random atom sets. The input is the seed of the pairs' generator: the
// committed seeds run with every `go test`, fuzz-smoke draws new ones.
func FuzzTrimmedDelta(f *testing.F) {
	for seed := int64(1); seed <= 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkTrimmedDelta(t, rand.New(rand.NewSource(seed))) })
}

func checkTrimmedDelta(t *testing.T, rng *rand.Rand) {
	var pool []pkt.Prefix
	var addrs []pkt.Addr
	for i := 0; i < 4; i++ {
		base := pkt.Addr(10<<24 | uint32(i)<<16)
		pool = append(pool, pkt.Prefix{Addr: base, Len: 16}, pkt.Prefix{Addr: base, Len: 24}, pkt.Prefix{Addr: base | 1<<8, Len: 24})
		addrs = append(addrs, base|7, base|1<<8|7, base|2<<8|7)
	}
	pool = append(pool, pkt.Prefix{}, pkt.Prefix{Addr: 10 << 24, Len: 8})
	addrs = append(addrs, pkt.Addr(11<<24|7))
	randRule := func() tf.Rule {
		return rule(pool[rng.Intn(len(pool))], topo.NodeID(rng.Intn(3)), rng.Intn(2))
	}
	for iter := 0; iter < 300; iter++ {
		old := make([]tf.Rule, rng.Intn(10))
		for i := range old {
			old[i] = randRule()
		}
		new := slices.Clone(old)
		for edits := rng.Intn(4); edits > 0; edits-- {
			switch i := rng.Intn(len(new) + 1); {
			case i == len(new) || rng.Intn(4) == 0:
				new = slices.Insert(new, i, randRule())
			case rng.Intn(3) == 0:
				new = slices.Delete(new, i, i+1)
			case rng.Intn(2) == 0:
				new[i] = randRule()
			default:
				j := rng.Intn(len(new))
				new[i], new[j] = new[j], new[i]
			}
		}
		trimmed, ref := newFIBDelta(tf.NewTableDelta(0, old, new)), positionalFIBDelta(old, new)
		sets := make([]topo.AtomSet, 0, len(addrs)+4)
		for _, a := range addrs {
			sets = append(sets, topo.NewAtomSet([]pkt.Addr{a}))
		}
		for i := 0; i < 4; i++ {
			rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
			sets = append(sets, topo.NewAtomSet(addrs[:1+rng.Intn(len(addrs))]))
		}
		for _, atoms := range sets {
			ga, gd := trimmed.dirtyAtom(atoms)
			wa, wd := ref.dirtyAtom(atoms)
			if ga != wa || gd != wd {
				t.Fatalf("%v -> %v, atoms %v: trimmed (%v, %v), positional (%v, %v)", old, new, atoms, ga, gd, wa, wd)
			}
		}
	}
}
