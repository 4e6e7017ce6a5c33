package core_test

import (
	"runtime"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/topo"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestColdVerifyAllAllocs is a ceiling on the allocations, and on the
// bytes allocated, of one cold VerifyAll of coldCandidate: the in-memory
// 2-group cache datacenter, whose six checks build two slice encodings and
// share the other four canonically; and of coldFileCandidate, the same
// checks as cachefarm-cold's file-described candidates verify them, six
// encodings. Building the encodings dominates both. Each ceiling is the
// measured figure (8 436 allocations and 1.02 MB in memory, 15 514 and
// 1.69 MB from the file, on linux/amd64, go1.24) plus 5 %. Declaring
// "malicious" on the scrubber-less IDSes, which never read it (two class
// assignments per sample, 252 choices per encoding), made 9 877 and
// 1.12 MB in memory, 17 118 and 1.89 MB from the file. Enumerating the
// journeys of each (sample, class assignment) rather than once per sample
// made 15 373 and 1.59 MB in memory, 29 058 and 2.85 MB from the file. A
// selector row over the whole 253-position alphabet at every step, with its
// product-encoding grid, made 15 821 and 2.42 MB; a clause struct per
// binary clause, 16-byte watchers holding a pointer and per-variable
// arrays grown one NewVar at a time made 16 090 and 3.69 MB. Grounding
// every state bit, frame axiom and path guard up front, before knowing the
// invariant, made 21 691 allocations; per-object construction before that
// made 92 941: one clause struct and literal array per problem clause, one
// allocation per watch-list growth, a map entry per atom, per-hop map
// copies in journey enumeration and K copies of every journey event. Not
// compared under the race detector, which adds allocations of its own.
func TestColdVerifyAllAllocs(t *testing.T) {
	for _, c := range []struct {
		name               string
		verifyAll          func() *core.Verifier
		ceiling, byteLimit float64
	}{
		{"in-memory", coldCandidate(t), 8858, 1_070_700},
		{"file", coldFileCandidate(t), 16291, 1_779_500},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(3, func() { c.verifyAll() })
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / 4 // AllocsPerRun's warm-up run and its 3
		if raceEnabled {
			return
		}
		if allocs > c.ceiling {
			t.Errorf("%s: cold VerifyAll made %.0f allocations, ceiling %.0f", c.name, allocs, c.ceiling)
		}
		if bytes > c.byteLimit {
			t.Errorf("%s: cold VerifyAll allocated %.0f bytes, ceiling %.0f", c.name, bytes, c.byteLimit)
		}
	}
}

// BenchmarkColdVerifyAll times the cold VerifyAll TestColdVerifyAllAllocs
// counts: the in-memory candidate, two slice encodings built and solved
// from nothing.
func BenchmarkColdVerifyAll(b *testing.B) {
	verifyAll := coldCandidate(b)
	b.ReportAllocs()
	for range b.N {
		verifyAll()
	}
}

// BenchmarkColdVerifyAllFile times the cold VerifyAll of
// coldFileCandidate, the shape cachefarm-cold verifies: six encodings.
func BenchmarkColdVerifyAllFile(b *testing.B) {
	verifyAll := coldFileCandidate(b)
	b.ReportAllocs()
	for range b.N {
		verifyAll()
	}
}

// coldCandidate returns coldVerifyAll of both data-isolation invariants of
// the intact, in-memory 2-group cache datacenter. Its fw1→fw2 failover
// keeps the failure slices isomorphic, so the six checks canonicalize to
// two classes: two encodings, four checks shared.
func coldCandidate(tb testing.TB) func() *core.Verifier {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
	return coldVerifyAll(tb, d.Net, []inv.Invariant{d.DataIsolationInvariant(0), d.DataIsolationInvariant(1)})
}

// coldFileCandidate returns coldVerifyAll of the same invariants and
// datacenter exported to a description and built back (netdesc.FromNetwork,
// then netdesc.Build), as cachefarm-cold verifies it: the description
// cannot express failover, so the failure slices differ and each of the
// six checks builds an encoding of its own.
func coldFileCandidate(tb testing.TB) func() *core.Verifier {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
	desc, err := netdesc.FromNetwork("cold", d.Net, []inv.Invariant{d.DataIsolationInvariant(0), d.DataIsolationInvariant(1)})
	if err != nil {
		tb.Fatal(err)
	}
	net, invs, err := netdesc.Build(desc, "")
	if err != nil {
		tb.Fatal(err)
	}
	return coldVerifyAll(tb, net, invs)
}

// TestColdCandidateEncodings pins the shapes coldCandidate and
// coldFileCandidate's comments state: two encodings and four shared checks
// in memory, six encodings and none shared from the description. Each
// encoding looks up its 126 samples' journeys once: no box reads a class,
// so each sample has one class assignment and makes one choice, 126 per
// encoding. Before samples were enumerated once, each of a sample's two
// class assignments looked its journeys up: 504 lookups and 280 misses in
// memory, 1 512 and 840 from the file.
func TestColdCandidateEncodings(t *testing.T) {
	for _, c := range []struct {
		name                     string
		verifyAll                func() *core.Verifier
		builds, shared           int64
		journeyLookups, journeys int64
	}{
		{"in-memory", coldCandidate(t), 2, 4, 252, 140},
		{"file", coldFileCandidate(t), 6, 0, 756, 420},
	} {
		v := c.verifyAll()
		_, builds := v.EncodingCacheStats()
		_, shared, _ := v.CanonStats()
		if builds != c.builds || shared != c.shared {
			t.Errorf("%s: %d encodings built and %d checks shared, want %d and %d", c.name, builds, shared, c.builds, c.shared)
		}
		if hits, misses := v.JourneyCacheStats(); hits+misses != c.journeyLookups || misses != c.journeys {
			t.Errorf("%s: %d journey lookups and %d misses, want %d and %d", c.name, hits+misses, misses, c.journeyLookups, c.journeys)
		}
	}
}

// coldVerifyAll returns a function that runs one cold VerifyAll (a fresh
// verifier, Workers: 1) of invs on net under no failure and the single
// failures of fw1 and ids1, as cachefarm-cold does, and returns the
// verifier. The network is built once, outside it.
func coldVerifyAll(tb testing.TB, net *core.Network, invs []inv.Invariant) func() *core.Verifier {
	opts := core.Options{Engine: core.EngineSAT, Workers: 1, Scenarios: []topo.FailureScenario{topo.NoFailures()}}
	for _, name := range []string{"fw1", "ids1"} {
		n, ok := net.Topo.ByName(name)
		if !ok {
			tb.Fatalf("no node %s", name)
		}
		opts.Scenarios = append(opts.Scenarios, topo.Failures(n.ID))
	}
	return func() *core.Verifier {
		v, err := core.NewVerifier(net, opts)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := v.VerifyAll(invs, true); err != nil {
			tb.Fatal(err)
		}
		return v
	}
}
