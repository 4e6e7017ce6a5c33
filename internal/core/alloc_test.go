package core_test

import (
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/topo"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestColdVerifyAllAllocs is a ceiling on the allocations of one cold
// VerifyAll (a fresh verifier, Workers: 1) of the intact 2-group cache
// datacenter under no failure and the single failures of fw1 and ids1:
// six slice encodings, nothing shared, which is one cachefarm-cold
// candidate. The network is built outside the counted function. Building
// the encodings dominates the count; the ceiling is the measured count
// (16 110 on linux/amd64, go1.24) plus 5 %. Grounding every state bit,
// frame axiom and path guard up front, before knowing the invariant, made
// 21 691; per-object construction before that made 92 941: one clause
// struct and literal array per problem clause, one allocation per
// watch-list growth, a map entry per atom, per-hop map copies in journey
// enumeration and K copies of every journey event. Not compared under the
// race detector, which adds allocations of its own.
func TestColdVerifyAllAllocs(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
	opts := core.Options{Engine: core.EngineSAT, Workers: 1, Scenarios: []topo.FailureScenario{topo.NoFailures()}}
	for _, name := range []string{"fw1", "ids1"} {
		n, ok := d.Net.Topo.ByName(name)
		if !ok {
			t.Fatalf("no node %s", name)
		}
		opts.Scenarios = append(opts.Scenarios, topo.Failures(n.ID))
	}
	invs := []inv.Invariant{d.DataIsolationInvariant(0), d.DataIsolationInvariant(1)}
	allocs := testing.AllocsPerRun(3, func() {
		v, err := core.NewVerifier(d.Net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.VerifyAll(invs, false); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 16915
	if allocs > ceiling && !raceEnabled {
		t.Fatalf("cold VerifyAll made %.0f allocations, ceiling %d", allocs, ceiling)
	}
}
