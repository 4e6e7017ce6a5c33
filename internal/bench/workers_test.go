package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/topo"
)

// TestVerifyAllWorkersBitIdentical pins core's worker count as a pure
// throughput knob on the cache-datacenter shape (caches defeat slicing, so
// checks solve distinct or translated encodings): VerifyAll and
// per-invariant VerifyInvariant return reports equal down to the witness,
// and the same canonicalization counters, at every width. Duration and
// SolverConflicts are left out: both measure a check's work, and checks
// sharing a warm encoding solve it in whatever order the pool runs them.
// Width 0 is the GOMAXPROCS default, which `go test -race -cpu 1,2,8`
// runs at three widths.
func TestVerifyAllWorkersBitIdentical(t *testing.T) {
	type candidate struct {
		name   string
		mutate func(*Datacenter)
	}
	cands := []candidate{{"intact", func(*Datacenter) {}}}
	for r := 0; r < 2; r++ {
		for tg := 0; tg < 2; tg++ {
			r, tg := r, tg
			cands = append(cands, candidate{fmt.Sprintf("cacheacl/r%d/t%d", r, tg),
				func(d *Datacenter) { d.DeleteCacheACLs(r, tg) }})
		}
	}
	for seed := 0; seed < 4; seed++ {
		seed := seed
		cands = append(cands, candidate{fmt.Sprintf("deny/%d", seed), func(d *Datacenter) {
			d.DeleteRandomDenyRules(rand.New(rand.NewSource(int64(seed))), 1+seed%2)
		}})
	}

	type outcome struct {
		all, each []core.Report
		canon     [2][3]int64
	}
	run := func(c candidate, workers int) outcome {
		d := NewDatacenter(DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
		c.mutate(d)
		invs := []inv.Invariant{d.DataIsolationInvariant(0), d.DataIsolationInvariant(1)}
		opts := core.Options{
			Engine:    core.EngineSAT,
			Workers:   workers,
			Scenarios: []topo.FailureScenario{topo.NoFailures(), topo.Failures(d.FW1), topo.Failures(d.IDS1)},
		}
		va, err := core.NewVerifier(d.Net, opts)
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		if o.all, err = va.VerifyAll(invs, true); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		o.canon[0][0], o.canon[0][1], o.canon[0][2] = va.CanonStats()
		vi, err := core.NewVerifier(d.Net, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, iv := range invs {
			rs, err := vi.VerifyInvariant(iv)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			o.each = append(o.each, rs...)
		}
		o.canon[1][0], o.canon[1][1], o.canon[1][2] = vi.CanonStats()
		for _, rs := range [][]core.Report{o.all, o.each} {
			for i := range rs {
				rs[i].Duration, rs[i].Result.SolverConflicts = 0, 0
			}
		}
		return o
	}

	violated := 0
	for _, c := range cands {
		base := run(c, 1)
		for _, r := range base.all {
			if !r.Satisfied {
				violated++
			}
		}
		for _, workers := range []int{0, 2, 8} {
			if got := run(c, workers); !reflect.DeepEqual(got, base) {
				t.Fatalf("%s: workers %d differs from workers 1:\ngot  %+v\nwant %+v", c.name, workers, got, base)
			}
		}
	}
	if violated == 0 {
		t.Fatal("no candidate violates an invariant: the witnesses go unchecked")
	}
}

// TestSolverDeterministicAtOneWorker pins the verification core as free of
// randomness: fresh verifiers at one worker, run over the same broken cache
// datacenter, do the same solver work down to the decision and return
// equal reports, SolverConflicts included. With more workers, checks that
// share a warm encoding solve it in the order the pool runs them, so the
// counts (not the verdicts) vary from run to run.
func TestSolverDeterministicAtOneWorker(t *testing.T) {
	want := sat.Stats{Decisions: 490, Propagations: 35851, Conflicts: 6, Learnt: 6, MinimizedLit: 3, SolveCalls: 81}
	var first []core.Report
	for run := 0; run < 3; run++ {
		d := NewDatacenter(DCConfig{Groups: 4, HostsPerGroup: 1, WithCaches: true})
		d.DeleteRandomDenyRules(rand.New(rand.NewSource(3)), 2)
		d.DeleteCacheACLs(0, 0)
		invs := d.AllIsolationInvariants()
		for g := 0; g < 4; g++ {
			invs = append(invs, d.DataIsolationInvariant(g))
		}
		v, err := core.NewVerifier(d.Net, core.Options{Engine: core.EngineSAT, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := v.VerifyAll(invs, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.SolverStats(); got != want {
			t.Fatalf("run %d: solver stats %+v, want %+v", run, got, want)
		}
		for i := range reps {
			reps[i].Duration = 0
		}
		if run == 0 {
			first = reps
		} else if !reflect.DeepEqual(reps, first) {
			t.Fatalf("run %d: reports differ from run 0:\ngot  %+v\nwant %+v", run, reps, first)
		}
	}
}
