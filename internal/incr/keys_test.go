package incr

// The exact-fingerprint half of the keying refactor's oracle (the class,
// encoding and per-model keys are pinned by internal/core's test of the
// same name, over the same networks): SHA-256 digests, recorded by running
// the parent commit, of every check's 'x'-namespace verdict-cache key.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/topo"
)

type keyedNet struct {
	name string
	net  *core.Network
	invs []inv.Invariant
	opts core.Options
}

// keyedNets is internal/core's list of the same name.
func keyedNets(t *testing.T) []keyedNet {
	t.Helper()
	dc := bench.NewDatacenter(bench.DCConfig{Groups: 4, HostsPerGroup: 2})
	dcInvs := dc.AllIsolationInvariants()
	cdc := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1, WithCaches: true})
	var cdcInvs []inv.Invariant
	for g := 0; g < 3; g++ {
		dcInvs = append(dcInvs, dc.TraversalInvariant(g, g+1))
		cdcInvs = append(cdcInvs, cdc.DataIsolationInvariant(g))
	}
	ent := bench.NewEnterprise(bench.EnterpriseConfig{Subnets: 6, HostsPerSubnet: 2})
	isp := bench.NewISP(bench.ISPConfig{Peerings: 2, Subnets: 6})
	var ispInvs []inv.Invariant
	for s := 0; s < 6; s++ {
		ispInvs = append(ispInvs, isp.Invariant(s, s%2))
	}
	mt := bench.NewMultiTenant(bench.MTConfig{Tenants: 3, PubPerTenant: 2, PrivPerTenant: 2})
	var mtInvs []inv.Invariant
	for a := 0; a < 3; a++ {
		b := (a + 1) % 3
		mtInvs = append(mtInvs, mt.PrivPrivInvariant(a, b), mt.PubPrivInvariant(a, b), mt.PrivPubInvariant(a, b))
	}
	out := []keyedNet{
		{"datacenter", dc.Net, dcInvs, core.Options{Engine: core.EngineSAT,
			Scenarios: []topo.FailureScenario{topo.NoFailures(), topo.Failures(dc.FW1)}}},
		{"datacenter-caches", cdc.Net, cdcInvs, core.Options{Engine: core.EngineSAT}},
		{"enterprise", ent.Net, ent.AllInvariants(), core.Options{MaxConflicts: 5000}},
		{"isp", isp.Net, ispInvs, core.Options{Engine: core.EngineExplicit, MaxSends: 3, NoSlices: true}},
		{"multitenant", mt.Net, mtInvs, core.Options{}},
	}
	for _, g := range []struct {
		name string
		desc *netdesc.Desc
	}{
		{"fattree", netdesc.FatTree(4, 1)},
		{"ispbackbone", netdesc.ISPBackbone(netdesc.ISPBackboneConfig{Peerings: 2, Subnets: 6})},
		{"cloudvpc", netdesc.CloudVPC(netdesc.VPCConfig{Tenants: 8, Shapes: 3, Peerings: 1, CrossChecks: 2})},
	} {
		net, invs, err := netdesc.Build(g.desc, "")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, keyedNet{g.name, net, invs, core.Options{}})
	}
	return out
}

func TestKeysByteIdentical(t *testing.T) {
	want := map[string]string{
		"cloudvpc":          "checks=19 x=f730ca0554d5c557",
		"datacenter":        "checks=30 x=054cbc4a9c78c770",
		"datacenter-caches": "checks=3 x=3b2e06fb1851117e",
		"enterprise":        "checks=6 x=7e34b50900173730",
		"fattree":           "checks=8 x=cbec3ebc2b5cc068",
		"isp":               "checks=6 x=0fdc743feb3c7386",
		"ispbackbone":       "checks=6 x=a87c50e420c8e09b",
		"multitenant":       "checks=9 x=6ed7e51e9130f4e7",
	}
	for _, kn := range keyedNets(t) {
		v, err := core.NewVerifier(kn.net, kn.opts)
		if err != nil {
			t.Fatal(err)
		}
		scens := kn.opts.Scenarios
		if len(scens) == 0 {
			scens = []topo.FailureScenario{topo.NoFailures()}
		}
		h := sha256.New()
		checks := 0
		for _, sc := range scens {
			eng := v.EngineFor(sc)
			for _, i := range kn.invs {
				cp, err := v.PlanOn(i, sc, eng)
				if err != nil {
					t.Fatal(err)
				}
				touched := slices.ComputeReadSet(kn.net.Topo, eng, cp.Slice()).Nodes
				fp, ok := fingerprint(i, sc, cp.Slice(), touched, eng.Tables(), kn.net.Topo, kn.opts)
				if !ok {
					t.Fatalf("%s: %s has no exact fingerprint", kn.name, i.Name())
				}
				h.Write(binary.AppendUvarint(nil, uint64(len(fp))))
				h.Write(fp)
				checks++
			}
		}
		got := fmt.Sprintf("checks=%d x=%s", checks, hex.EncodeToString(h.Sum(nil))[:16])
		if got != want[kn.name] {
			t.Errorf("%s: got %s, want %s", kn.name, got, want[kn.name])
		}
	}
}
