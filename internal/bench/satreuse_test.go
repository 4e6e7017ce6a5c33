package bench

// Differential test for the SAT engine's solver-reuse layer: VerifyAll
// with shared slice encodings and assumption solving must return verdicts
// AND traces bit-identical to fresh-per-invariant solving, across seeds,
// scenarios (fault-free and failure), violated and holding invariants, and
// every worker count — `go test -race` exercises the concurrent sharing of
// one encoding by several check-pool workers.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/topo"
)

// diffReports compares two report lists event-for-event.
func diffReports(t *testing.T, label string, shared, fresh []core.Report) {
	t.Helper()
	if len(shared) != len(fresh) {
		t.Fatalf("%s: report counts differ: %d vs %d", label, len(shared), len(fresh))
	}
	for i := range shared {
		s, f := shared[i], fresh[i]
		if s.Invariant.Name() != f.Invariant.Name() {
			t.Fatalf("%s: report %d names differ: %q vs %q", label, i, s.Invariant.Name(), f.Invariant.Name())
		}
		if s.Result.Outcome != f.Result.Outcome || s.Satisfied != f.Satisfied {
			t.Fatalf("%s: %s verdict differs: shared %v/%v, fresh %v/%v",
				label, s.Invariant.Name(), s.Result.Outcome, s.Satisfied, f.Result.Outcome, f.Satisfied)
		}
		if len(s.Result.Trace) != len(f.Result.Trace) {
			t.Fatalf("%s: %s trace lengths differ: %d vs %d\nshared: %v\nfresh:  %v",
				label, s.Invariant.Name(), len(s.Result.Trace), len(f.Result.Trace),
				s.Result.Trace, f.Result.Trace)
		}
		for j := range s.Result.Trace {
			if s.Result.Trace[j] != f.Result.Trace[j] {
				t.Fatalf("%s: %s trace event %d differs: %v vs %v",
					label, s.Invariant.Name(), j, s.Result.Trace[j], f.Result.Trace[j])
			}
		}
	}
}

func runBoth(t *testing.T, net *core.Network, opts core.Options, invs []inv.Invariant, workers int, label string) {
	t.Helper()
	// Canonical normalization would collapse most of these checks before
	// they reach the solver; disable it so the solver-reuse layer itself
	// stays fully exercised (canonical mode has its own differential
	// suite in canon_test.go).
	opts.NoCanon = true
	sharedOpts := opts
	sharedOpts.Workers = workers
	vs, err := core.NewVerifier(net, sharedOpts)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := vs.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	freshOpts := opts
	freshOpts.NoSolverReuse = true
	vf, err := core.NewVerifier(net, freshOpts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := vf.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	diffReports(t, label, shared, fresh)
	if hits, _ := vs.EncodingCacheStats(); hits == 0 {
		t.Fatalf("%s: solver reuse never engaged (0 encoding-cache hits)", label)
	}
}

func TestSATReuseMatchesFreshDatacenter(t *testing.T) {
	for _, seed := range []int64{0, 1} {
		for _, workers := range []int{1, 3} {
			d := NewDatacenter(DCConfig{Groups: 4, HostsPerGroup: 1})
			// Punch holes so a mix of violated (traced) and holding
			// invariants is verified.
			d.DeleteRandomDenyRules(rand.New(rand.NewSource(seed)), 2)
			opts := core.Options{Engine: core.EngineSAT}
			runBoth(t, d.Net, opts, d.AllIsolationInvariants(), workers,
				fmt.Sprintf("datacenter seed=%d workers=%d", seed, workers))
		}
	}
}

func TestSATReuseMatchesFreshUnderFailures(t *testing.T) {
	d := NewDatacenter(DCConfig{Groups: 3, HostsPerGroup: 1})
	d.DeleteBackupDenyRules(rand.New(rand.NewSource(5)), 1)
	opts := core.Options{
		Engine:    core.EngineSAT,
		Scenarios: []topo.FailureScenario{topo.NoFailures(), topo.Failures(d.FW1)},
	}
	runBoth(t, d.Net, opts, d.AllIsolationInvariants(), 3, "datacenter failure scenarios")
}

func TestSATReuseMatchesFreshMultiTenant(t *testing.T) {
	m := NewMultiTenant(MTConfig{Tenants: 3, PubPerTenant: 1, PrivPerTenant: 1})
	var invs []inv.Invariant
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if a != b {
				invs = append(invs, m.PrivPrivInvariant(a, b), m.PrivPubInvariant(a, b))
			}
		}
	}
	opts := core.Options{Engine: core.EngineSAT}
	runBoth(t, m.Net, opts, invs, 4, "multitenant")
}
