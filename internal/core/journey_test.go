package core

import (
	"reflect"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// TestJourneyMemoAcrossInvariants pins the SAT engine's cross-invariant
// journey memoization: two invariants over the same slice share the same
// packet alphabet, so the second verification must reuse the first's
// journey enumerations. NoSolverReuse isolates the journey layer — with
// solver reuse on, the encoding cache absorbs same-slice re-solves one
// level higher (see TestEncodingReuseAcrossInvariants). It runs at the
// default worker count: the two checks may first touch the alphabet
// concurrently, and single-flight makes the later asker of the problem
// wait for the one enumeration and count hits, so the counts are exact.
func TestJourneyMemoAcrossInvariants(t *testing.T) {
	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	net, hA, hB, _ := pairNet(mbox.NewLearningFirewall("fw",
		mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB))))
	v, err := NewVerifier(net, Options{Engine: EngineSAT, NoSolverReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	invs := []inv.Invariant{
		inv.SimpleIsolation{Dst: hB, SrcAddr: aA}, // violated (allowed flow)
		// Holds: hB cannot initiate (default deny), and replies ride flows
		// hA itself initiated.
		inv.FlowIsolation{Dst: hA, SrcAddr: aB},
	}
	reports, err := v.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Result.Outcome != inv.Violated || reports[1].Result.Outcome != inv.Holds {
		t.Fatalf("unexpected verdicts: %v %v", reports[0].Result.Outcome, reports[1].Result.Outcome)
	}
	// Both checks enumerate the same alphabet: one miss per sample, then
	// one hit per sample.
	cp, err := v.PlanOn(invs[0], topo.NoFailures(), v.EngineFor(topo.NoFailures()))
	if err != nil {
		t.Fatal(err)
	}
	samples := int64(len(cp.p.prob.Samples))
	if hits, misses := v.JourneyCacheStats(); hits != samples || misses != samples {
		t.Fatalf("journey cache hits=%d misses=%d, want %d and %d", hits, misses, samples, samples)
	}

	// A fresh verifier starts cold — the cache never crosses the frozen-
	// network boundary.
	v2, _ := NewVerifier(net, Options{Engine: EngineSAT, NoSolverReuse: true})
	if _, err := v2.VerifyInvariant(invs[0]); err != nil {
		t.Fatal(err)
	}
	if h, _ := v2.JourneyCacheStats(); h != 0 {
		t.Fatalf("fresh verifier must not inherit journey cache state (hits=%d)", h)
	}
}

// TestEncodingReuseAcrossInvariants pins the solver-reuse layer: invariants
// over the same slice (same alphabet, schedule bound and solver options)
// must share one SliceEncoding, with later checks decided by assumption
// solves on the warm solver — and the verdicts must match the fresh path.
func TestEncodingReuseAcrossInvariants(t *testing.T) {
	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	net, hA, hB, _ := pairNet(mbox.NewLearningFirewall("fw",
		mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB))))
	v, err := NewVerifier(net, Options{Engine: EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	invs := []inv.Invariant{
		inv.SimpleIsolation{Dst: hB, SrcAddr: aA}, // violated (allowed flow)
		inv.SimpleIsolation{Dst: hA, SrcAddr: aB}, // holds (default deny)
		inv.FlowIsolation{Dst: hA, SrcAddr: aB},   // holds
		inv.SimpleIsolation{Dst: hB, SrcAddr: aA}, // repeat: a copy of the first
	}
	reports, err := v.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := v.EncodingCacheStats()
	if misses != 1 {
		t.Fatalf("same-slice invariants must share one encoding build, got %d builds", misses)
	}
	// The repeated invariant asserts what the first does, so it joins the
	// first's group and is reported as a Reused copy right after it, with
	// no check of its own; the two distinct later invariants decide by
	// assumption solves on the warm shared encoding.
	if hits != 2 {
		t.Fatalf("distinct later invariants must hit the encoding cache: hits=%d", hits)
	}
	if _, shared, _ := v.CanonStats(); shared != 0 {
		t.Fatalf("the repeated invariant must not reach canonicalization, got shared=%d", shared)
	}
	if r := reports[1]; !r.Reused || r.Invariant != invs[3] {
		t.Fatalf("report 1 must be the repeat's Reused copy, got %v (reused=%v)", r.Invariant, r.Reused)
	}

	// The shared-encoding verdicts and traces must be bit-identical to
	// fresh-per-invariant solving.
	vf, _ := NewVerifier(net, Options{Engine: EngineSAT, NoSolverReuse: true})
	fresh, err := vf.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		if reports[i].Result.Outcome != fresh[i].Result.Outcome {
			t.Fatalf("invariant %d: shared %v vs fresh %v", i, reports[i].Result.Outcome, fresh[i].Result.Outcome)
		}
		if len(reports[i].Result.Trace) != len(fresh[i].Result.Trace) {
			t.Fatalf("invariant %d: trace lengths differ: %d vs %d", i,
				len(reports[i].Result.Trace), len(fresh[i].Result.Trace))
		}
		for j := range reports[i].Result.Trace {
			if reports[i].Result.Trace[j] != fresh[i].Result.Trace[j] {
				t.Fatalf("invariant %d: trace event %d differs: %v vs %v", i, j,
					reports[i].Result.Trace[j], fresh[i].Result.Trace[j])
			}
		}
	}
}

// TestVerifyAllParallelMatchesSequential pins Workers determinism: the
// parallel path must produce the identical report list, witnesses
// included, up to the work measures (Duration, SolverConflicts).
func TestVerifyAllParallelMatchesSequential(t *testing.T) {
	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	mk := func() []inv.Invariant {
		return []inv.Invariant{
			inv.SimpleIsolation{Dst: 1, SrcAddr: aA},
			inv.SimpleIsolation{Dst: 0, SrcAddr: aB},
			inv.Reachability{Dst: 1, SrcAddr: aA},
			inv.FlowIsolation{Dst: 0, SrcAddr: aB},
		}
	}
	run := func(workers int) []Report {
		net, _, _, _ := pairNet(mbox.NewLearningFirewall("fw",
			mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB))))
		v, _ := NewVerifier(net, Options{Engine: EngineSAT, Workers: workers})
		rs, err := v.VerifyAll(mk(), true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			rs[i].Duration, rs[i].Result.SolverConflicts = 0, 0
		}
		return rs
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("reports differ:\nseq=%+v\npar=%+v", seq, par)
	}
}
