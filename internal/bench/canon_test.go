package bench

// Differential test for canonical slice normalization: VerifyAll with
// class-level solving + witness translation (default) must return verdicts
// AND traces bit-identical to Options.NoCanon solving, across seeds,
// scenarios (datacenter, multitenant, caches), engines and worker counts —
// `go test -race` exercises concurrent class solving. The incremental
// layer gets the same treatment: canonical Sessions must stay
// Apply-for-Apply identical to NoCanon Sessions across change streams.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/topo"
)

// runCanonDiff verifies invs both ways and requires bit-identical reports.
func runCanonDiff(t *testing.T, net *core.Network, opts core.Options, invs []inv.Invariant, workers int, label string) {
	t.Helper()
	canonOpts := opts
	canonOpts.Workers = workers
	vc, err := core.NewVerifier(net, canonOpts)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := vc.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	plainOpts := opts
	plainOpts.NoCanon = true
	vp, err := core.NewVerifier(net, plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := vp.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	diffReports(t, label, canon, plain)
	classes, shared, _ := vc.CanonStats()
	if shared == 0 {
		t.Fatalf("%s: canonicalization never shared a verdict (classes=%d)", label, classes)
	}
	// Every canonicalizable check is either a solved representative or a
	// translated member; a shortfall means witness translation fell back
	// to solving, which class-key equality is supposed to rule out. A
	// Reused report is a copy of its group representative's, not a check.
	var total int64
	for _, r := range canon {
		if !r.Reused {
			total++
		}
	}
	if classes+shared != total {
		t.Fatalf("%s: translation fell back to solving: classes=%d shared=%d of %d checks",
			label, classes, shared, total)
	}
}

func TestCanonMatchesNoCanonMultiTenant(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := NewMultiTenant(MTConfig{Tenants: 5, PubPerTenant: 1, PrivPerTenant: 1})
		var invs []inv.Invariant
		for a := 0; a < 5; a++ {
			for b := 0; b < 5; b++ {
				if a != b {
					invs = append(invs, m.PrivPrivInvariant(a, b),
						m.PubPrivInvariant(a, b), m.PrivPubInvariant(a, b))
				}
			}
		}
		opts := core.Options{Engine: core.EngineSAT}
		runCanonDiff(t, m.Net, opts, invs, workers, fmt.Sprintf("multitenant workers=%d", workers))
	}
}

func TestCanonMatchesNoCanonDatacenter(t *testing.T) {
	for _, seed := range []int64{0, 1} {
		d := NewDatacenter(DCConfig{Groups: 4, HostsPerGroup: 1})
		// Punch holes so a mix of violated (traced) and holding invariants
		// is verified — witness translation must reproduce the traces.
		d.DeleteRandomDenyRules(rand.New(rand.NewSource(seed)), 2)
		opts := core.Options{Engine: core.EngineSAT}
		runCanonDiff(t, d.Net, opts, d.AllIsolationInvariants(), 3,
			fmt.Sprintf("datacenter seed=%d", seed))
	}
}

func TestCanonMatchesNoCanonUnderFailures(t *testing.T) {
	d := NewDatacenter(DCConfig{Groups: 3, HostsPerGroup: 1})
	d.DeleteBackupDenyRules(rand.New(rand.NewSource(5)), 1)
	opts := core.Options{
		Engine:    core.EngineSAT,
		Scenarios: []topo.FailureScenario{topo.NoFailures(), topo.Failures(d.FW1)},
	}
	runCanonDiff(t, d.Net, opts, d.AllIsolationInvariants(), 3, "datacenter failure scenarios")
}

func TestCanonMatchesNoCanonCaches(t *testing.T) {
	// Origin-agnostic caches: data-isolation invariants, 4-step schedules,
	// fill/probe traces. One group's cache ACLs are deleted so violated
	// and holding checks both appear. Distinct groups do NOT class-share
	// here — §4.1 pulls one representative of every policy class into an
	// origin-agnostic slice, so each group's destination sits at a
	// different position in the (shared) host list (a documented
	// completeness limit). An exact repeat is a Reused copy of its first
	// occurrence; what class-shares is one invariant's checks across the
	// failover scenarios, whose slices stay isomorphic. The differential
	// identity is the point.
	d := NewDatacenter(DCConfig{Groups: 4, HostsPerGroup: 1, WithCaches: true})
	d.DeleteCacheACLs(0, 0)
	var invs []inv.Invariant
	for g := 0; g < 4; g++ {
		invs = append(invs, d.DataIsolationInvariant(g))
	}
	invs = append(invs, d.DataIsolationInvariant(0)) // violated: a Reused copy
	opts := core.Options{Engine: core.EngineSAT,
		Scenarios: []topo.FailureScenario{topo.NoFailures(), topo.Failures(d.FW1), topo.Failures(d.IDS1)}}
	runCanonDiff(t, d.Net, opts, invs, 2, "datacenter caches")
}

func TestCanonMatchesNoCanonExplicitEngine(t *testing.T) {
	// The explicit engine's exploration order is renaming-sensitive only
	// through state-key sorting, which never affects which witness a
	// level-synchronous search reports; the translated traces must still
	// be bit-identical.
	m := NewMultiTenant(MTConfig{Tenants: 4, PubPerTenant: 1, PrivPerTenant: 1})
	var invs []inv.Invariant
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				invs = append(invs, m.PrivPrivInvariant(a, b), m.PrivPubInvariant(a, b))
			}
		}
	}
	opts := core.Options{Engine: core.EngineExplicit}
	runCanonDiff(t, m.Net, opts, invs, 2, "multitenant explicit")
}

// sessionPair runs the same change stream through a canonical session and
// a NoCanon session and requires bit-identical reports after every Apply.
func sessionPair(t *testing.T, mkNet func() (*core.Network, []inv.Invariant),
	changes func(step int, net *core.Network) []incr.Change, steps int,
	opts core.Options, label string) {
	t.Helper()

	netC, invs := mkNet()
	canonOpts := opts
	sessC, repC, err := incr.NewSession(netC, canonOpts, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	netP, invsP := mkNet()
	plainOpts := opts
	plainOpts.NoCanon = true
	sessP, repP, err := incr.NewSession(netP, plainOpts, invsP, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diffReports(t, label+" initial", repC, repP)

	for step := 0; step < steps; step++ {
		repC, err = sessC.Apply(changes(step, netC))
		if err != nil {
			t.Fatal(err)
		}
		repP, err = sessP.Apply(changes(step, netP))
		if err != nil {
			t.Fatal(err)
		}
		diffReports(t, fmt.Sprintf("%s step %d", label, step), repC, repP)
	}
}

func TestCanonSessionMatchesNoCanonMultiTenant(t *testing.T) {
	const T = 5
	mk := func() (*core.Network, []inv.Invariant) {
		m := NewMultiTenant(MTConfig{Tenants: T, PubPerTenant: 1, PrivPerTenant: 1})
		var invs []inv.Invariant
		for a := 0; a < T; a++ {
			for b := 0; b < T; b++ {
				if a != b {
					invs = append(invs, m.PrivPrivInvariant(a, b))
				}
			}
		}
		return m.Net, invs
	}
	changes := func(step int, net *core.Network) []incr.Change {
		// The change stream must be identical for both sessions: derive it
		// from the step number and the (deterministic) topology.
		tn := step % T
		vm, _ := net.Topo.ByName(fmt.Sprintf("priv%d-0", tn))
		switch step % 2 {
		case 0:
			return []incr.Change{incr.NodeDown(vm.ID)}
		default:
			return []incr.Change{incr.NodeUp(vm.ID)}
		}
	}
	sessionPair(t, mk, changes, 6,
		core.Options{Engine: core.EngineSAT, Workers: 3}, "session multitenant")
}

// TestCanonVerdictCacheAcrossIsomorphicFootprints pins the cross-footprint
// payoff: a configuration change re-verified and cached for one tenant
// answers the SAME change later applied to a different tenant — fresh
// addresses, fresh node IDs, isomorphic footprint — through canonical
// verdict-cache keys with witness translation, without re-solving.
func TestCanonVerdictCacheAcrossIsomorphicFootprints(t *testing.T) {
	const T = 4
	m := NewMultiTenant(MTConfig{Tenants: T, PubPerTenant: 1, PrivPerTenant: 1})
	var invs []inv.Invariant
	for a := 0; a < T; a++ {
		for b := 0; b < T; b++ {
			if a != b {
				invs = append(invs, m.PrivPrivInvariant(a, b))
			}
		}
	}
	sess, _, err := incr.NewSession(m.Net, core.Options{Engine: core.EngineSAT},
		invs, incr.Options{NoSymmetry: true})
	if err != nil {
		t.Fatal(err)
	}

	shadow := func(tn int) incr.Change {
		fw := *m.Firewalls[tn]
		fw.ACL = append([]mbox.ACLEntry{
			mbox.AllowEntry(TenantPrivPrefix(tn), TenantPrivPrefix(tn)),
		}, fw.ACL...)
		m.Firewalls[tn] = &fw
		return incr.BoxSwap(m.VSwitchFW[tn], &fw)
	}

	// Shadow tenant 1's firewall: novel configurations, so the dirty
	// pairs re-solve (dead-entry elimination may still serve pairs whose
	// effective policy is unchanged).
	if _, err := sess.Apply([]incr.Change{shadow(1)}); err != nil {
		t.Fatal(err)
	}
	st1 := sess.LastApply()
	if st1.CacheMisses == 0 {
		t.Fatalf("novel configuration must solve something: %+v", st1)
	}

	// The identical change on tenant 2: every dirty pair not involving
	// tenant 1 lands on a footprint isomorphic to one already cached for
	// tenant 1 — canonical hits with translated witnesses, no solve. Only
	// the (1,2)/(2,1) pairs — BOTH firewalls shadowed, a genuinely new
	// shape — may re-solve.
	if _, err := sess.Apply([]incr.Change{shadow(2)}); err != nil {
		t.Fatal(err)
	}
	st2 := sess.LastApply()
	if st2.CanonHits == 0 {
		t.Fatalf("isomorphic footprint must hit the canonical verdict cache: %+v", st2)
	}
	if st2.CacheMisses > 2 {
		t.Fatalf("only the doubly-shadowed pairs may re-solve: %+v", st2)
	}
	tot := sess.TotalStats()
	if tot.CanonHits == 0 || tot.Classes == 0 {
		t.Fatalf("session totals must expose canonical counters: %+v", tot)
	}
}

func TestCanonSessionMatchesNoCanonDatacenter(t *testing.T) {
	const G = 4
	mk := func() (*core.Network, []inv.Invariant) {
		d := NewDatacenter(DCConfig{Groups: G, HostsPerGroup: 1})
		return d.Net, d.AllIsolationInvariants()
	}
	changes := func(step int, net *core.Network) []incr.Change {
		g := step % G
		h, _ := net.Topo.ByName(fmt.Sprintf("h%d-0", g))
		switch step % 3 {
		case 0:
			return []incr.Change{incr.Relabel(h.ID, fmt.Sprintf("churn-%d", g))}
		case 1:
			return []incr.Change{incr.NodeDown(h.ID)}
		default:
			return []incr.Change{incr.NodeUp(h.ID), incr.Relabel(h.ID, "")}
		}
	}
	sessionPair(t, mk, changes, 6,
		core.Options{Engine: core.EngineSAT, Workers: 2}, "session datacenter")
}
