package core_test

import (
	"runtime"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/topo"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestColdVerifyAllAllocs is a ceiling on the allocations, and on the
// bytes allocated, of one cold VerifyAll (see coldCandidate): six slice
// encodings, nothing shared, which is one cachefarm-cold candidate.
// Building the encodings dominates both. Each ceiling is the measured
// figure (15 821 allocations and 2.42 MB on linux/amd64, go1.24) plus 5 %.
// A clause struct per binary clause, 16-byte watchers holding a pointer
// and per-variable arrays grown one NewVar at a time made 16 090 and
// 3.69 MB. Grounding every state bit, frame axiom and path guard up front,
// before knowing the invariant, made 21 691 allocations; per-object
// construction before that made 92 941: one clause struct and literal
// array per problem clause, one allocation per watch-list growth, a map
// entry per atom, per-hop map copies in journey enumeration and K copies
// of every journey event. Not compared under the race detector, which
// adds allocations of its own.
func TestColdVerifyAllAllocs(t *testing.T) {
	verifyAll := coldCandidate(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(3, verifyAll)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 4 // AllocsPerRun's warm-up run and its 3
	const ceiling, byteCeiling = 16612, 2_542_000
	if raceEnabled {
		return
	}
	if allocs > ceiling {
		t.Errorf("cold VerifyAll made %.0f allocations, ceiling %d", allocs, ceiling)
	}
	if bytes > byteCeiling {
		t.Errorf("cold VerifyAll allocated %.0f bytes, ceiling %d", bytes, byteCeiling)
	}
}

// BenchmarkColdVerifyAll times the cold VerifyAll TestColdVerifyAllAllocs
// counts: one cachefarm-cold candidate, six slice encodings built and
// solved from nothing.
func BenchmarkColdVerifyAll(b *testing.B) {
	verifyAll := coldCandidate(b)
	b.ReportAllocs()
	for range b.N {
		verifyAll()
	}
}

// coldCandidate returns a function that runs one cold VerifyAll (a fresh
// verifier, Workers: 1) of both data-isolation invariants of the intact
// 2-group cache datacenter under no failure and the single failures of
// fw1 and ids1. The network is built once, outside it.
func coldCandidate(tb testing.TB) func() {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
	opts := core.Options{Engine: core.EngineSAT, Workers: 1, Scenarios: []topo.FailureScenario{topo.NoFailures()}}
	for _, name := range []string{"fw1", "ids1"} {
		n, ok := d.Net.Topo.ByName(name)
		if !ok {
			tb.Fatalf("no node %s", name)
		}
		opts.Scenarios = append(opts.Scenarios, topo.Failures(n.ID))
	}
	invs := []inv.Invariant{d.DataIsolationInvariant(0), d.DataIsolationInvariant(1)}
	return func() {
		v, err := core.NewVerifier(d.Net, opts)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := v.VerifyAll(invs, false); err != nil {
			tb.Fatal(err)
		}
	}
}
