package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/encode"
	"github.com/netverify/vmn/internal/topo"
)

// TestSliceEncodingCNFPinnedDatacenter extends encode's
// TestSliceEncodingCNFPinned to the problems core assembles for the
// 2-group cache datacenter, intact and with rack 0's cache ACLs for group
// 0 deleted (a leak): both data-isolation invariants under no failure and
// the single failures of fw1 and ids1, the six encodings a cold VerifyAll
// of the network builds. One SHA-256 runs over their DIMACS dumps in that
// order. The two networks share it: the deleted ACLs change only which
// journey events reach the guest, and events enter the CNF when an
// invariant's atoms are grounded, not before.
func TestSliceEncodingCNFPinnedDatacenter(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*bench.Datacenter)
		want   string
	}{
		{"intact", func(*bench.Datacenter) {}, "f9ada2663df853aebb6d28b0f883db8e41cd854446f358c3bb9ae3b9475ab514"},
		{"cacheacl/r0/t0", func(d *bench.Datacenter) { d.DeleteCacheACLs(0, 0) }, "f9ada2663df853aebb6d28b0f883db8e41cd854446f358c3bb9ae3b9475ab514"},
	} {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
		c.mutate(d)
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
		h := sha256.New()
		for g := 0; g < 2; g++ {
			for _, sc := range scens {
				cp, err := v.PlanOn(d.DataIsolationInvariant(g), sc, v.EngineFor(sc))
				if err != nil {
					t.Fatal(err)
				}
				e, err := encode.NewSliceEncoding(cp.Problem(), encode.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.WriteDIMACS(h); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: CNF sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
