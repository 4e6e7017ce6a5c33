package incr_test

// The canonical verdict-cache re-hit path under LRU pressure: a violated
// tenant's verdict is cached under its canonical class key with the
// producing slice's renaming; a stream of one-off probe entries churns the
// (tiny) cache past its capacity; the hot canonical entry survives because
// every shadow-rule dirtying round re-touches it, the cold probes age out;
// and an ISOMORPHIC tenant added afterwards — whose own exact entry never
// existed and whose namespace differs from the producer's — must be
// answered through the canonical key with a correctly TRANSLATED witness,
// not re-solved. This is the stored-renaming translation interleaved with
// eviction, end to end.

import (
	"fmt"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

func TestSessionCanonRehitAfterEviction(t *testing.T) {
	const T = 4
	m := bench.NewMultiTenant(bench.MTConfig{Tenants: T, PubPerTenant: 1, PrivPerTenant: 1})
	for tn := 0; tn < T; tn++ {
		for _, vm := range m.PubVMs[tn] {
			m.Net.PolicyClass[vm] = fmt.Sprintf("pub-%d", tn)
		}
		for _, vm := range m.PrivVMs[tn] {
			m.Net.PolicyClass[vm] = fmt.Sprintf("priv-%d", tn)
		}
	}
	// Open the last tenant's private group: every priv-X -> priv-3
	// isolation invariant is violated WITH a witness, so the canonical hit
	// below has a trace to translate. (The victim must sort after the
	// sources: canonical classes are keyed positionally over the slice's
	// host order, so (0,3) and (1,3) are isomorphic while (0,1) and (2,1)
	// are not.)
	m.Firewalls[T-1].ACL = append([]mbox.ACLEntry{
		mbox.AllowEntry(pkt.Prefix{}, bench.TenantPrivPrefix(T-1)),
	}, m.Firewalls[T-1].ACL...)

	opts := core.Options{Engine: core.EngineSAT}
	sess, reports, err := incr.NewSession(m.Net, opts, []inv.Invariant{m.PrivPrivInvariant(0, 3)}, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess.ShrinkVerdictCache(4)
	if reports[0].Satisfied || len(reports[0].Result.Trace) == 0 {
		t.Fatalf("setup: tenant-0 invariant should be violated with a witness: %+v", reports[0].Result)
	}

	// Churn: each round adds a distinct probe invariant (a one-off cache
	// entry) and toggles a shadow steering rule at the shared fabric. The
	// toggle dirties the violated tenant's group — the network is
	// behaviourally identical, so its canonical key is unchanged and the
	// hot entry is re-touched on every round — while the probes fill and
	// overflow the 4-entry cache.
	base := m.Net.FIBFor
	overlay := map[topo.NodeID][]tf.Rule{}
	shadow := tf.Rule{Match: bench.TenantPrefix(0), In: topo.NodeNone, Out: m.VSwitchFW[0], Priority: 9}
	toggleFabric := func() incr.Change {
		if len(overlay[m.Fabric]) > 0 {
			delete(overlay, m.Fabric)
		} else {
			overlay[m.Fabric] = []tf.Rule{shadow}
		}
		return incr.FIBUpdate(overlayFIBFor(base, overlay))
	}
	// The probes must be structurally DISTINCT (different invariant types
	// and endpoint kinds), or they would canonicalize together — probes
	// over renamed-but-isomorphic tenant pairs share one canonical entry
	// and exert no cache pressure.
	probeFor := func(k int) inv.Invariant {
		label := fmt.Sprintf("probe-%d", k)
		switch k {
		case 0:
			return inv.Reachability{Dst: m.PubVMs[0][0], SrcAddr: bench.PrivVMAddr(1, 0), Label: label}
		case 1:
			return inv.SimpleIsolation{Dst: m.PubVMs[0][0], SrcAddr: bench.PrivVMAddr(1, 0), Label: label}
		case 2:
			return inv.FlowIsolation{Dst: m.PubVMs[0][0], SrcAddr: bench.PrivVMAddr(1, 0), Label: label}
		case 3:
			return inv.Reachability{Dst: m.PubVMs[0][0], SrcAddr: bench.PubVMAddr(1, 0), Label: label}
		case 4:
			return inv.SimpleIsolation{Dst: m.PubVMs[0][0], SrcAddr: bench.PubVMAddr(1, 0), Label: label}
		default:
			return inv.FlowIsolation{Dst: m.PubVMs[0][0], SrcAddr: bench.PubVMAddr(1, 0), Label: label}
		}
	}
	const rounds = 6
	for k := 0; k < rounds; k++ {
		probe := probeFor(k)
		if _, err := sess.Apply([]incr.Change{incr.AddInvariant(probe), toggleFabric()}); err != nil {
			t.Fatal(err)
		}
		st := sess.LastApply()
		if st.CacheHits == 0 {
			t.Fatalf("round %d: the dirtied-but-identical tenant group must re-touch its hot entry: %+v", k, st)
		}
		if _, err := sess.Apply([]incr.Change{incr.RemoveInvariant(probe.Name()), toggleFabric()}); err != nil {
			t.Fatal(err)
		}
	}

	// The isomorphic tenant: same policy shape as tenant 0 against the
	// opened tenant 3, but a different address space and node footprint.
	// Its group is new (dirty), no exact entry for it was ever cached, yet
	// the canonical class key matches the surviving hot entry — the cached
	// verdict must come back through the stored renaming with the witness
	// translated into tenant 1's namespace, without a solve.
	reports, err = sess.Apply([]incr.Change{incr.AddInvariant(m.PrivPrivInvariant(1, 3))})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.LastApply()
	if st.CacheMisses != 0 {
		t.Fatalf("isomorphic tenant must be served from the canonical cache, not solved: %+v", st)
	}
	if st.CanonHits == 0 {
		t.Fatalf("the hit must be canonical (cross-namespace): %+v", st)
	}

	var got *core.Report
	for i := range reports {
		if reports[i].Invariant.Name() == m.PrivPrivInvariant(1, 3).Name() {
			got = &reports[i]
		}
	}
	if got == nil {
		t.Fatal("report for the re-added tenant missing")
	}
	if !got.Cached || !got.CanonShared {
		t.Fatalf("report should be a cross-namespace cached verdict: cached=%v canonShared=%v",
			got.Cached, got.CanonShared)
	}
	if got.Satisfied || len(got.Result.Trace) == 0 {
		t.Fatalf("translated verdict must stay violated with a witness: %+v", got.Result)
	}

	// The translated witness must be bit-identical to what a from-scratch
	// verification of tenant 1 produces — the acceptance bar for the
	// stored-renaming translation.
	want := baseline(t, sess, opts, true)
	compareReports(t, "canon re-hit", reports, want)
	compareWitnesses(t, "canon re-hit", reports, want)

	// And the witness must genuinely live in tenant 1's namespace: some
	// event must carry a tenant-1 address.
	found := false
	for _, ev := range got.Result.Trace {
		if bench.TenantPrefix(1).Matches(ev.Hdr.Src) || bench.TenantPrefix(1).Matches(ev.Hdr.Dst) {
			found = true
		}
	}
	if !found {
		t.Fatalf("translated witness does not mention tenant 1's addresses: %v", got.Result.Trace)
	}

	// LRU pressure really evicted the cold probes: re-adding the oldest one
	// must re-solve (its one-off entry is gone), unlike the hot canonical
	// entry.
	if _, err := sess.Apply([]incr.Change{incr.AddInvariant(probeFor(0))}); err != nil {
		t.Fatal(err)
	}
	if st := sess.LastApply(); st.CacheMisses == 0 {
		t.Fatalf("evicted probe entry should force a re-solve: %+v", st)
	}
}
