package netdesc_test

import (
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
)

// differential runs the same invariants against the in-memory network
// and against its file round-trip (export → encode → decode → build) and
// requires bit-identical reports: outcome, satisfaction, and the full
// violation trace.
func differential(t *testing.T, name string, net *core.Network, invs []inv.Invariant) {
	t.Helper()
	d, err := netdesc.FromNetwork(name, net, invs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := netdesc.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := netdesc.Decode(data, name+".json")
	if err != nil {
		t.Fatalf("exported description does not decode: %v", err)
	}
	rebuilt, rebuiltInvs, err := netdesc.Build(back, "")
	if err != nil {
		t.Fatalf("exported description does not build: %v", err)
	}
	if len(rebuiltInvs) != len(invs) {
		t.Fatalf("invariant count changed across round-trip: %d vs %d", len(rebuiltInvs), len(invs))
	}

	v1, err := core.NewVerifier(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := v1.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := core.NewVerifier(rebuilt, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := v2.VerifyAll(rebuiltInvs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("report counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Invariant.Name() != r2[i].Invariant.Name() {
			t.Fatalf("report %d: invariant %q vs %q", i, r1[i].Invariant.Name(), r2[i].Invariant.Name())
		}
		if r1[i].Result.Outcome != r2[i].Result.Outcome || r1[i].Satisfied != r2[i].Satisfied {
			t.Fatalf("%s: outcome %v/%v vs %v/%v", r1[i].Invariant.Name(),
				r1[i].Result.Outcome, r1[i].Satisfied, r2[i].Result.Outcome, r2[i].Satisfied)
		}
		if len(r1[i].Result.Trace) != len(r2[i].Result.Trace) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", r1[i].Invariant.Name(),
				len(r1[i].Result.Trace), len(r2[i].Result.Trace))
		}
		for j := range r1[i].Result.Trace {
			if r1[i].Result.Trace[j] != r2[i].Result.Trace[j] {
				t.Fatalf("%s: trace event %d differs: %v vs %v", r1[i].Invariant.Name(), j,
					r1[i].Result.Trace[j], r2[i].Result.Trace[j])
			}
		}
	}
}

// TestDifferentialDatacenter proves a file-described §5.1/§5.2
// datacenter (firewalls, IDPSes, caches) verifies bit-identically to the
// programmatic builder it was exported from.
func TestDifferentialDatacenter(t *testing.T) {
	dc := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 2, WithCaches: true})
	invs := []inv.Invariant{
		dc.IsolationInvariant(0, 1),
		dc.IsolationInvariant(1, 2),
		dc.TraversalInvariant(0, 2),
		dc.DataIsolationInvariant(0),
	}
	differential(t, "datacenter", dc.Net, invs)
}

// TestDifferentialMultiTenant does the same for the §5.3.2 multi-tenant
// security-group datacenter.
func TestDifferentialMultiTenant(t *testing.T) {
	m := bench.NewMultiTenant(bench.MTConfig{Tenants: 3, PubPerTenant: 2, PrivPerTenant: 2})
	invs := []inv.Invariant{
		m.PrivPrivInvariant(0, 1),
		m.PubPrivInvariant(1, 2),
		m.PrivPubInvariant(2, 0),
	}
	differential(t, "multitenant", m.Net, invs)
}

// TestDifferentialISP covers the exporter's IDPS/scrubber path against
// the §5.3.3 ISP builder.
func TestDifferentialISP(t *testing.T) {
	isp := bench.NewISP(bench.ISPConfig{Peerings: 2, Subnets: 3})
	var invs []inv.Invariant
	for s := 0; s < 3; s++ {
		invs = append(invs, isp.Invariant(s, s%2))
	}
	differential(t, "isp", isp.Net, invs)
}
