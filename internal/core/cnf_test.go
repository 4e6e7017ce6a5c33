package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/encode"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/topo"
)

// datacenterEncodings builds, and has verify its own invariant, each of
// the six encodings a cold VerifyAll of the 2-group cache datacenter
// builds: both data-isolation invariants under no failure and the single
// failures of fw1 and ids1, in that order.
func datacenterEncodings(t *testing.T, d *bench.Datacenter, opts encode.Options) ([]*encode.SliceEncoding, []inv.Result) {
	t.Helper()
	v, err := core.NewVerifier(d.Net, core.Options{Engine: core.EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	scens := []topo.FailureScenario{topo.NoFailures()}
	for _, name := range []string{"fw1", "ids1"} {
		n, ok := d.Net.Topo.ByName(name)
		if !ok {
			t.Fatalf("no node %s", name)
		}
		scens = append(scens, topo.Failures(n.ID))
	}
	var encs []*encode.SliceEncoding
	var results []inv.Result
	for g := 0; g < 2; g++ {
		for _, sc := range scens {
			cp, err := v.PlanOn(d.DataIsolationInvariant(g), sc, v.EngineFor(sc))
			if err != nil {
				t.Fatal(err)
			}
			e, err := encode.NewSliceEncoding(cp.Problem(), opts)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Verify(cp.Problem(), opts)
			if err != nil {
				t.Fatal(err)
			}
			encs, results = append(encs, e), append(results, r)
		}
	}
	return encs, results
}

// datacenterCases are the 2-group cache datacenter intact and with rack
// 0's cache ACLs for group 0 deleted (a leak of group 0's data).
var datacenterCases = []struct {
	name   string
	mutate func(*bench.Datacenter)
}{
	{"intact", func(*bench.Datacenter) {}},
	{"cacheacl/r0/t0", func(d *bench.Datacenter) { d.DeleteCacheACLs(0, 0) }},
}

// cnfHash is the SHA-256 of the canonical DIMACS dumps of the encodings'
// CNF, one after another: per encoding the variable count, the clause
// count and the clauses, each with its literals sorted (as AddClause sorts
// them), in sorted order.
func cnfHash(encs []*encode.SliceEncoding) string {
	h := sha256.New()
	for _, e := range encs {
		var cls [][]sat.Lit
		nv := e.Clauses(func(lits []sat.Lit) {
			c := slices.Clone(lits)
			slices.Sort(c)
			cls = append(cls, c)
		})
		slices.SortFunc(cls, slices.Compare[[]sat.Lit])
		fmt.Fprintf(h, "p cnf %d %d\n", nv, len(cls))
		for _, c := range cls {
			for _, l := range c {
				fmt.Fprintf(h, "%v ", l)
			}
			io.WriteString(h, "0\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSliceEncodingCNFPinnedDatacenter extends encode's
// TestSliceEncodingCNFPinned to the problems core assembles for the
// datacenterCases: one SHA-256 runs over the canonical dumps of the six
// encodings, each after verifying its invariant, and the search counts are
// the six encodings' solver stats summed. The two networks differ: the
// deleted ACLs change which journey events reach the guest, and so which
// paths and state bits the invariant's cone grounds.
func TestSliceEncodingCNFPinnedDatacenter(t *testing.T) {
	want := []struct {
		cnf   string
		stats sat.Stats
	}{
		{"4d36121a639f6ca3111becded85eb56a65251b3b6b0c9af8ff4d36b1f3f47f71",
			sat.Stats{Propagations: 60, SolveCalls: 6}},
		{"9e0e3e162105b8fde34e1907f4672284ec47ece0fec13d89577df296087f1436",
			sat.Stats{Decisions: 54, Propagations: 2259, Conflicts: 6, Learnt: 6, SolveCalls: 30}},
	}
	for i, c := range datacenterCases {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
		c.mutate(d)
		encs, _ := datacenterEncodings(t, d, encode.Options{})
		if got := cnfHash(encs); got != want[i].cnf {
			t.Errorf("%s: CNF sha256 %s, want %s", c.name, got, want[i].cnf)
		}
		var st sat.Stats
		for _, e := range encs {
			st = st.Add(e.SolverStats())
		}
		if st != want[i].stats {
			t.Errorf("%s: solver stats %#v, want %#v", c.name, st, want[i].stats)
		}
	}
}

// TestSliceEncodingConeDatacenter pins the cone of influence each of the
// six encodings grounds for its data-isolation invariant: out of 50 state
// bits, a holding invariant's bad formula reaches one, group 0's leak
// three; out of 126 choices, it admits 1 and 6; and the variables the
// encoding holds. The whole-network baseline grounds all 50 bits and
// admits all 126 choices whatever the verdict, and agrees on the verdict
// and, byte for byte, on the witness.
func TestSliceEncodingConeDatacenter(t *testing.T) {
	want := []struct{ bits, choices, vars []int }{
		{[]int{1, 1, 1, 1, 1, 1}, []int{1, 1, 1, 1, 1, 1}, []int{18, 18, 18, 18, 18, 18}},
		{[]int{3, 3, 3, 1, 1, 1}, []int{6, 6, 6, 1, 1, 1}, []int{92, 92, 92, 18, 18, 18}},
	}
	for i, c := range datacenterCases {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
		c.mutate(d)
		lazy, lazyRes := datacenterEncodings(t, d, encode.Options{})
		eager, eagerRes := datacenterEncodings(t, d, encode.Options{GroundAllReadKeys: true})
		for j := range lazy {
			bits, ofBits, choices, ofChoices := lazy[j].Grounded()
			vars := lazy[j].Clauses(func([]sat.Lit) {})
			if bits != want[i].bits[j] || ofBits != 50 {
				t.Errorf("%s encoding %d: grounded %d of %d state bits, want %d of 50", c.name, j, bits, ofBits, want[i].bits[j])
			}
			if choices != want[i].choices[j] || ofChoices != 126 {
				t.Errorf("%s encoding %d: admitted %d of %d choices, want %d of 126", c.name, j, choices, ofChoices, want[i].choices[j])
			}
			if vars != want[i].vars[j] {
				t.Errorf("%s encoding %d: %d variables, want %d", c.name, j, vars, want[i].vars[j])
			}
			if bits, ofBits, choices, ofChoices := eager[j].Grounded(); bits != ofBits || ofBits < 50 || choices != ofChoices || ofChoices != 126 {
				t.Errorf("%s encoding %d: whole-network baseline grounded %d of %d state bits and admitted %d of %d choices", c.name, j, bits, ofBits, choices, ofChoices)
			}
			if lazyRes[j].Outcome != eagerRes[j].Outcome || !reflect.DeepEqual(lazyRes[j].Trace, eagerRes[j].Trace) {
				t.Errorf("%s encoding %d: %v %v, whole-network baseline %v %v", c.name, j, lazyRes[j].Outcome, lazyRes[j].Trace, eagerRes[j].Outcome, eagerRes[j].Trace)
			}
		}
	}
}
