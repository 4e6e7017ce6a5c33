package encode_test

import (
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/encode"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/topo"
)

// TestSharedJourneysMatchPerClass: enumerating a sample once and stamping
// each choice's class set on its events reads the same journeys as
// enumerating every (sample, class assignment) on its own, on every
// coneFamilies problem and on the six checks of the file-described cache
// datacenter (cachefarm-cold's candidate). The IDS fragment's scrubber
// reads a class, so some of its samples must fall back to a walk per
// class, and some family with two or more class assignments must share a
// sample, or the stamping goes untested. No box of the datacenter reads a
// class, so its problems have one class assignment each.
func TestSharedJourneysMatchPerClass(t *testing.T) {
	stamped := false
	for fi, fam := range encode.ConeFamilies() {
		perClass, shared := 0, 0
		for _, p := range fam {
			pc, sh := encode.SharedMatchesPerClass(t, p)
			perClass, shared = perClass+pc, shared+sh
		}
		classes := len(fam[0].ClassAssignments())
		if classes > 1 && perClass == 0 {
			t.Errorf("family %d: %d class assignments and every sample shared, want the IDS fallback", fi, classes)
		}
		stamped = stamped || classes > 1 && shared > 0
	}
	if !stamped {
		t.Error("no family with two or more class assignments shares a sample: stamping a class set goes untested")
	}

	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
	desc, err := netdesc.FromNetwork("cold", d.Net, []inv.Invariant{d.DataIsolationInvariant(0), d.DataIsolationInvariant(1)})
	if err != nil {
		t.Fatal(err)
	}
	net, invs, err := netdesc.Build(desc, "")
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.NewVerifier(net, core.Options{Engine: core.EngineSAT})
	if err != nil {
		t.Fatal(err)
	}
	scens := []topo.FailureScenario{topo.NoFailures()}
	for _, name := range []string{"fw1", "ids1"} {
		n, _ := net.Topo.ByName(name)
		scens = append(scens, topo.Failures(n.ID))
	}
	for _, i := range invs {
		for _, sc := range scens {
			cp, err := v.PlanOn(i, sc, v.EngineFor(sc))
			if err != nil {
				t.Fatal(err)
			}
			if p := cp.Problem(); len(p.ClassAssignments()) != 1 {
				t.Fatalf("%s under %v: %d class assignments, want one", i.Name(), sc.Nodes(), len(p.ClassAssignments()))
			} else if n, _ := encode.SharedMatchesPerClass(t, p); n != 0 {
				t.Errorf("%s under %v: %d samples walked per class, want none", i.Name(), sc.Nodes(), n)
			}
		}
	}
}
