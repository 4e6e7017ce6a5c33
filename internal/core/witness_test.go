package core_test

import (
	"math/bits"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/topo"
)

// TestWitnessExtractionSolveBoundThroughCore: on the 2-group cache
// datacenter with rack 0's cache ACLs for group 0 deleted (a leak), the
// violated check costs its deciding solve plus at most
// ⌈log₂(|choices|+1)⌉ solves per schedule step. A linear scan per step
// took 470 here.
func TestWitnessExtractionSolveBoundThroughCore(t *testing.T) {
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
	d.DeleteCacheACLs(0, 0)
	v, err := core.NewVerifier(d.Net, core.Options{Engine: core.EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	sc := topo.NoFailures()
	cp, err := v.PlanOn(d.DataIsolationInvariant(0), sc, v.EngineFor(sc))
	if err != nil {
		t.Fatal(err)
	}
	before := v.SolverStats().SolveCalls
	r, err := v.VerifyPlanned(cp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Satisfied {
		t.Fatal("the deleted cache ACLs must leak group 0's data")
	}
	p := cp.Problem()
	choices := len(p.Samples) * len(p.ClassAssignments())
	bound := int64(1 + p.MaxSends*bits.Len(uint(choices)))
	if solves := v.SolverStats().SolveCalls - before; solves > bound {
		t.Fatalf("%d solves, bound 1 + %d·⌈log₂(%d+1)⌉ = %d", solves, p.MaxSends, choices, bound)
	}
}
