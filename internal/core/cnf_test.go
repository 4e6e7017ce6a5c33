package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/encode"
	"github.com/netverify/vmn/internal/inv"
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

// TestSliceEncodingCNFPinnedDatacenter extends encode's
// TestSliceEncodingCNFPinned to the problems core assembles for the
// datacenterCases: one SHA-256 runs over the DIMACS dumps of the six
// encodings, each after verifying its invariant. The two networks differ:
// the deleted ACLs change which journey events reach the guest, and so
// which paths and state bits the invariant's cone grounds.
func TestSliceEncodingCNFPinnedDatacenter(t *testing.T) {
	want := []string{
		"6193779220b35c9e6a725a63f6ddf7598cf9d00962b406659c8dcb8d00b98e69",
		"0daa39bf53a79effd0401d06c7cd93e01c0efcad25754221255021fd590d4dbc",
	}
	for i, c := range datacenterCases {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
		c.mutate(d)
		encs, _ := datacenterEncodings(t, d, encode.Options{})
		h := sha256.New()
		for _, e := range encs {
			if err := e.WriteDIMACS(h); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[i] {
			t.Errorf("%s: CNF sha256 %s, want %s", c.name, got, want[i])
		}
	}
}

// TestSliceEncodingConeDatacenter pins the cone of influence each of the
// six encodings grounds for its data-isolation invariant, out of 50 state
// bits: a holding invariant's bad formula reaches one, group 0's leak
// three. The whole-network baseline grounds all 50 whatever the verdict,
// and agrees on it.
func TestSliceEncodingConeDatacenter(t *testing.T) {
	want := [][]int{{1, 1, 1, 1, 1, 1}, {3, 3, 3, 1, 1, 1}}
	for i, c := range datacenterCases {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
		c.mutate(d)
		lazy, lazyRes := datacenterEncodings(t, d, encode.Options{})
		eager, eagerRes := datacenterEncodings(t, d, encode.Options{GroundAllReadKeys: true})
		for j := range lazy {
			if bits, of := lazy[j].Grounded(); bits != want[i][j] || of != 50 {
				t.Errorf("%s encoding %d: grounded %d of %d state bits, want %d of 50", c.name, j, bits, of, want[i][j])
			}
			if bits, of := eager[j].Grounded(); bits != of || of < 50 {
				t.Errorf("%s encoding %d: whole-network baseline grounded %d of %d state bits", c.name, j, bits, of)
			}
			if lazyRes[j].Outcome != eagerRes[j].Outcome {
				t.Errorf("%s encoding %d: %v, whole-network baseline %v", c.name, j, lazyRes[j].Outcome, eagerRes[j].Outcome)
			}
		}
	}
}
