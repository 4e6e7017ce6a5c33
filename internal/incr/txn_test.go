package incr_test

// Unit tests for the transactional layer (Propose/Commit/Rollback):
// ordering errors, rollback restoring the session state beside a
// never-proposed twin, verdicts a rolled-back proposal leaves cached,
// commit equivalence against a direct-Apply twin, verified minimal-repair
// suggestions, budget degradation, and session-level panic containment.
// The twins reuse the fuzz targets (fuzz_test.go) so the change alphabet
// and mirror bookkeeping stay in one place.

import (
	"bytes"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/store"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// compareStats asserts two ApplyStats are identical modulo wall-clock
// duration.
func compareStats(t *testing.T, step string, got, want incr.ApplyStats) {
	t.Helper()
	got.Duration, want.Duration = 0, 0
	if got != want {
		t.Fatalf("%s: apply stats mismatch:\n got %+v\nwant %+v", step, got, want)
	}
}

// compareStatsModuloCache is compareStats for a session whose verdict
// cache may hold more than want's: the same checks ran (hits plus misses),
// at least as many of them were hits, and every other counter is equal.
func compareStatsModuloCache(t *testing.T, step string, got, want incr.ApplyStats) {
	t.Helper()
	if got.CacheHits+got.CacheMisses != want.CacheHits+want.CacheMisses || got.CacheHits < want.CacheHits {
		t.Fatalf("%s: cache accounting: %d hits + %d misses, want %d + %d with no fewer hits",
			step, got.CacheHits, got.CacheMisses, want.CacheHits, want.CacheMisses)
	}
	got.CacheHits, got.CacheMisses, got.CanonHits = want.CacheHits, want.CacheMisses, want.CanonHits
	compareStats(t, step, got, want)
}

// sessionState is everything Rollback restores: all of the session but
// its verdict cache.
type sessionState struct {
	last    incr.ApplyStats
	totals  incr.Totals
	explain []incr.ExplainRecord
	invs    []inv.Invariant
	sigs    []string
	classes map[topo.NodeID]string
	scens   []topo.FailureScenario
	keys    []string
	engines []*tf.Engine
	dump    []byte
}

func stateOf(t *testing.T, s *incr.Session) sessionState {
	t.Helper()
	st := sessionState{
		last: s.LastApply(), totals: s.TotalStats(), explain: s.Explain(),
		invs: s.Invariants(), sigs: s.Signatures(), scens: s.EffectiveScenarios(),
		keys: s.GroupKeys(), engines: s.HeldEngines(),
		// nil and empty differ: a relabel on a network without classes
		// makes the map.
		classes: maps.Clone(s.Network().PolicyClass),
	}
	st.last.Duration = 0
	st.dump = canonicalDump(t, s.Network(), st.invs)
	return st
}

// compareState asserts got is want, the held engines pointer for pointer.
func compareState(t *testing.T, step string, got, want sessionState) {
	t.Helper()
	for _, f := range []struct {
		name  string
		equal bool
	}{
		{"last apply stats", got.last == want.last},
		{"totals", got.totals == want.totals},
		{"explain records", reflect.DeepEqual(got.explain, want.explain)},
		{"invariants", reflect.DeepEqual(got.invs, want.invs)},
		{"signatures", slices.Equal(got.sigs, want.sigs)},
		{"policy classes", reflect.DeepEqual(got.classes, want.classes)},
		{"effective scenarios", reflect.DeepEqual(got.scens, want.scens)},
		{"group keys", slices.Equal(got.keys, want.keys)},
		{"held engines", slices.Equal(got.engines, want.engines)},
		{"network", string(got.dump) == string(want.dump)},
	} {
		if !f.equal {
			t.Fatalf("%s: %s moved", step, f.name)
		}
	}
}

func TestTxnOrderingErrors(t *testing.T) {
	a := newDCTarget(t, false, incr.Options{})
	s := a.session()

	if _, err := s.Commit(); err != incr.ErrNoPropose {
		t.Fatalf("Commit without propose: got %v, want ErrNoPropose", err)
	}
	if err := s.Rollback(); err != incr.ErrNoPropose {
		t.Fatalf("Rollback without propose: got %v, want ErrNoPropose", err)
	}
	if _, err := s.Propose([]incr.Change{{Kind: incr.KindBoxReconfig, Node: a.d.FW1}}); err == nil {
		t.Fatal("Propose of a reconfiguration without its model succeeded")
	}
	if s.ProposePending() {
		t.Fatal("rejected propose left the session pending")
	}

	if _, err := s.Propose(a.probe(1)); err != nil {
		t.Fatalf("Propose failed: %v", err)
	}
	if !s.ProposePending() {
		t.Fatal("ProposePending false with a propose outstanding")
	}
	if _, err := s.Propose(a.probe(1)); err != incr.ErrProposePending {
		t.Fatalf("double Propose: got %v, want ErrProposePending", err)
	}
	if _, err := s.Apply(nil); err != incr.ErrProposePending {
		t.Fatalf("Apply while pending: got %v, want ErrProposePending", err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatalf("Rollback failed: %v", err)
	}
	if err := s.Rollback(); err != incr.ErrNoPropose {
		t.Fatalf("second Rollback: got %v, want ErrNoPropose", err)
	}
	if _, err := s.Apply(nil); err != nil {
		t.Fatalf("Apply after rollback failed: %v", err)
	}
}

// TestProposeRollbackRestoresState drives twin sessions through an
// identical change stream; one takes a violating (and a topology-only)
// Propose/Rollback detour before every step. Each Rollback must leave the
// detouring session's state exactly as it was before its Propose. After
// each step the two must agree on verdicts, witnesses and every apply
// counter but the cache's: the detouring session's verdict cache also
// holds what its proposals verified, so it may hit where the twin solves.
func TestProposeRollbackRestoresState(t *testing.T) {
	// The subtest keeps the name it had while a node-granularity row ran
	// beside it.
	t.Run("prefix", func(t *testing.T) {
		a := newDCTarget(t, false, incr.Options{}) // detours
		b := newDCTarget(t, false, incr.Options{}) // never proposes

		// On the pristine network the fw-hole probe must be rejected
		// with the one verified repair: drop the offending change.
		before := stateOf(t, a.session())
		pr, err := a.session().Propose(a.probe(0))
		if err != nil {
			t.Fatalf("violating Propose failed: %v", err)
		}
		if pr.Decision != incr.Reject || pr.NewViolations == 0 {
			t.Fatalf("violating probe not rejected: %+v", pr)
		}
		if len(pr.Repairs) != 1 || len(pr.Repairs[0].Drop) != 1 || pr.Repairs[0].Drop[0] != 0 {
			t.Fatalf("want repair [drop 0], got %+v", pr.Repairs)
		}
		if err := a.session().Rollback(); err != nil {
			t.Fatalf("Rollback failed: %v", err)
		}
		compareState(t, "pristine rollback", stateOf(t, a.session()), before)

		// Interleave probes (violating or not — under churn the hole
		// may be moot, e.g. with the firewall already down; the bar
		// here is the restored state, not the decision) with real churn.
		stream := [][2]byte{{0, 2}, {3, 1}, {1, 0}, {0, 2}, {5, 1}}
		for i, p := range stream {
			op, arg := p[0], p[1]
			step := "step " + string(rune('0'+i))

			before := stateOf(t, a.session())
			if _, err := a.session().Propose(a.probe(arg)); err != nil {
				t.Fatalf("%s: Propose failed: %v", step, err)
			}
			if err := a.session().Rollback(); err != nil {
				t.Fatalf("%s: Rollback failed: %v", step, err)
			}
			compareState(t, step+" rollback", stateOf(t, a.session()), before)

			ra, errA := a.session().Apply(a.changes(op, arg))
			rb, errB := b.session().Apply(b.changes(op, arg))
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: twins disagree on applicability: %v vs %v", step, errA, errB)
			}
			if errA != nil {
				continue
			}
			compareReports(t, step, ra, rb)
			compareWitnesses(t, step, ra, rb)
			compareStatsModuloCache(t, step, a.session().LastApply(), b.session().LastApply())
		}
	})

	// One proposal per change kind, then a rejected one whose repair search
	// runs a candidate per change. While each is pending, every read of
	// the session but explain answers from the base; its Rollback restores
	// the base, signatures included.
	t.Run("every kind", func(t *testing.T) {
		o := obs.New(0)
		a := newDCTarget(t, false, incr.Options{Obs: o}) // detours
		b := newDCTarget(t, false, incr.Options{})       // never proposes
		// A node down and a host labelled first, for node_up and a
		// relabel to "" to act on.
		for _, f := range []*dcTarget{a, b} {
			if _, err := f.session().Apply([]incr.Change{incr.NodeDown(f.d.IDS1), incr.Relabel(f.d.Hosts[1][0], "blue")}); err != nil {
				t.Fatal(err)
			}
		}
		d := a.d
		var ids2 mbox.Model
		for _, bx := range d.Net.Boxes {
			if bx.Node == d.IDS2 {
				ids2 = bx.Model
			}
		}
		fw := cloneFirewall(d.FWPrimary)
		fw.ACL = fw.ACL[1:]
		rows := []struct {
			name    string
			changes []incr.Change
		}{
			{"relabel to a new class", []incr.Change{incr.Relabel(d.Hosts[2][0], "canary")}},
			{"relabel to no class", []incr.Change{incr.Relabel(d.Hosts[1][0], "")}},
			{"node down", []incr.Change{incr.NodeDown(d.FW2)}},
			{"node up", []incr.Change{incr.NodeUp(d.IDS1)}},
			{"fib", []incr.Change{shadowRule(d, d.Agg, tf.Rule{Match: bench.ClientPrefix(1), In: topo.NodeNone, Out: d.FW1, Priority: 9})}},
			{"box remove", []incr.Change{incr.BoxRemove(d.IDS1)}},
			{"box rebind", []incr.Change{incr.BoxRemove(d.IDS2), incr.BoxSwap(d.IDS2, ids2)}},
			{"box reconfig", []incr.Change{incr.BoxSwap(d.FW1, fw)}},
			{"inv add", []incr.Change{incr.AddInvariant(inv.Reachability{Dst: d.Hosts[1][0], SrcAddr: bench.HostAddr(0, 0), Label: "probe"})}},
			{"inv remove", []incr.Change{incr.RemoveInvariant(d.IsolationInvariant(0, 1).Name())}},
			{"rejected", append(a.probe(0), incr.Relabel(d.Hosts[2][0], "canary"), incr.NodeDown(d.FW2))},
		}
		applies := o.Metrics.Counter("vmn_incr_applies_total")
		for _, row := range rows {
			before, reports := stateOf(t, a.session()), a.session().CurrentReports()
			ran := applies.Value()
			pr, err := a.session().Propose(row.changes)
			if err != nil {
				t.Fatalf("%s: Propose failed: %v", row.name, err)
			}
			ran = applies.Value() - ran
			// Explain shows the pending run by design.
			pending := stateOf(t, a.session())
			pending.explain = before.explain
			compareState(t, row.name+" pending", pending, before)
			compareReports(t, row.name+" pending", a.session().CurrentReports(), reports)
			compareWitnesses(t, row.name+" pending", a.session().CurrentReports(), reports)
			if row.name == "rejected" && (pr.Decision != incr.Reject || pr.RepairTruncated || ran < 4) {
				t.Fatalf("rejected: %s after %d shadow runs (truncated %v), want a reject after the proposal and 3 candidates", pr.Decision, ran, pr.RepairTruncated)
			}
			if err := a.session().Rollback(); err != nil {
				t.Fatalf("%s: Rollback failed: %v", row.name, err)
			}
			compareState(t, row.name+" rollback", stateOf(t, a.session()), before)
		}
		for i, p := range [][2]byte{{5, 2}, {6, 0}, {0, 3}, {3, 1}} {
			step := "after the detours " + string(rune('0'+i))
			ra, errA := a.session().Apply(a.changes(p[0], p[1]))
			rb, errB := b.session().Apply(b.changes(p[0], p[1]))
			if errA != nil || errB != nil {
				t.Fatalf("%s: apply failed: %v / %v", step, errA, errB)
			}
			compareReports(t, step, ra, rb)
			compareWitnesses(t, step, ra, rb)
			compareStatsModuloCache(t, step, a.session().LastApply(), b.session().LastApply())
		}
	})

	// A relabel on a network built without a class map makes one; its
	// Rollback takes it away again.
	t.Run("no classes", func(t *testing.T) {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
		d.Net.PolicyClass = nil
		s, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, d.AllIsolationInvariants(), incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := stateOf(t, s)
		if _, err := s.Propose([]incr.Change{incr.Relabel(d.Hosts[0][0], "canary")}); err != nil {
			t.Fatal(err)
		}
		if err := s.Rollback(); err != nil {
			t.Fatal(err)
		}
		compareState(t, "rollback", stateOf(t, s), before)
	})
}

// TestRollbackKeepsVerifiedVerdicts: what a rolled-back proposal verified
// stays in the verdict cache, so applying the rejected change afterwards
// solves nothing.
func TestRollbackKeepsVerifiedVerdicts(t *testing.T) {
	a := newDCTarget(t, false, incr.Options{})
	pr, err := a.session().Propose(a.probe(0))
	if err != nil {
		t.Fatalf("Propose failed: %v", err)
	}
	if pr.Decision != incr.Reject || pr.Stats.CacheMisses == 0 {
		t.Fatalf("the allow hole was not rejected after solving: %+v", pr)
	}
	if err := a.session().Rollback(); err != nil {
		t.Fatalf("Rollback failed: %v", err)
	}
	got, err := a.session().Apply(a.probe(0))
	if err != nil {
		t.Fatalf("Apply failed: %v", err)
	}
	if n := a.session().LastApply().CacheMisses; n != 0 {
		t.Fatalf("applying the rolled-back change solved %d checks, want 0", n)
	}
	want := baseline(t, a.session(), core.Options{Engine: core.EngineSAT}, true)
	compareReports(t, "after rollback", got, want)
	compareWitnesses(t, "after rollback", got, want)
}

// TestProposeCommitEqualsApply: committing a proposed change-set must
// leave the session indistinguishable from one that Apply'd it directly —
// same reports and witnesses now, and same stats (cache behavior
// included) on the next change.
func TestProposeCommitEqualsApply(t *testing.T) {
	a := newDCTarget(t, false, incr.Options{})
	b := newDCTarget(t, false, incr.Options{})

	pr, err := a.session().Propose(a.probe(1))
	if err != nil {
		t.Fatalf("Propose failed: %v", err)
	}
	committed, err := a.session().Commit()
	if err != nil {
		t.Fatalf("Commit failed: %v", err)
	}
	direct, err := b.session().Apply(b.probe(1))
	if err != nil {
		t.Fatalf("direct Apply failed: %v", err)
	}
	compareReports(t, "commit", committed, direct)
	compareWitnesses(t, "commit", committed, direct)
	compareReports(t, "commit vs propose result", committed, pr.Reports)
	compareStats(t, "commit", a.session().LastApply(), b.session().LastApply())

	// Follow-up churn, ACL edits included.
	for i, p := range [][2]byte{{1, 0}, {0, 2}, {3, 1}, {6, 1}, {0, 2}} {
		step := "follow-up " + string(rune('0'+i))
		ra, errA := a.session().Apply(a.changes(p[0], p[1]))
		rb, errB := b.session().Apply(b.changes(p[0], p[1]))
		if errA != nil || errB != nil {
			t.Fatalf("%s: apply failed: %v / %v", step, errA, errB)
		}
		compareReports(t, step, ra, rb)
		compareWitnesses(t, step, ra, rb)
		compareStats(t, step, a.session().LastApply(), b.session().LastApply())
	}
}

// TestRepairSuggestionsVerifyGreen is the acceptance criterion for the
// repair search: every suggestion, applied as proposed-minus-dropped to a
// fresh twin session, verifies with no invariant worse off than before.
func TestRepairSuggestionsVerifyGreen(t *testing.T) {
	mkChanges := func(f *dcTarget) []incr.Change {
		// Index 0 violates (allow hole through the isolation firewall);
		// 1 and 2 are benign riders.
		return append(f.probe(0),
			incr.Relabel(f.d.Hosts[2][0], "canary"),
			incr.NodeDown(f.d.IDS1))
	}

	a := newDCTarget(t, false, incr.Options{})
	pr, err := a.session().Propose(mkChanges(a))
	if err != nil {
		t.Fatalf("Propose failed: %v", err)
	}
	if pr.Decision != incr.Reject || pr.NewViolations == 0 {
		t.Fatalf("violating propose not rejected: %+v", pr)
	}
	if pr.RepairTruncated {
		t.Fatalf("repair search truncated on a 3-change set")
	}
	if len(pr.Repairs) == 0 {
		t.Fatal("no repair suggestions for a single-cause violation")
	}
	sawDropZero := false
	for _, r := range pr.Repairs {
		if len(r.Drop) == 1 && r.Drop[0] == 0 {
			sawDropZero = true
		}
	}
	if !sawDropZero {
		t.Fatalf("want a [drop 0] repair, got %+v", pr.Repairs)
	}
	if err := a.session().Rollback(); err != nil {
		t.Fatalf("Rollback failed: %v", err)
	}

	// Re-verify every suggestion on an untouched twin. The base network
	// satisfies all invariants, so "no invariant worse off" means every
	// report must come back satisfied.
	for ri, rep := range pr.Repairs {
		tw := newDCTarget(t, false, incr.Options{})
		skip := map[int]bool{}
		for _, i := range rep.Drop {
			skip[i] = true
		}
		all := mkChanges(tw)
		var remaining []incr.Change
		for i, ch := range all {
			if !skip[i] {
				remaining = append(remaining, ch)
			}
		}
		reports, err := tw.session().Apply(remaining)
		if err != nil {
			t.Fatalf("repair %d: apply failed: %v", ri, err)
		}
		for _, r := range reports {
			if !r.Satisfied {
				t.Fatalf("repair %d (drop %v) does not verify green: %s unsatisfied",
					ri, rep.Drop, r.Invariant.Name())
			}
		}
	}
}

// TestProposeBudgetExceeded: with an immediate request deadline every
// check degrades to an explicit budget_exceeded verdict — outcome
// unknown, conservatively unsatisfied, never cached — and the decision is
// a conservative reject. The session survives and rolls back cleanly.
func TestProposeBudgetExceeded(t *testing.T) {
	a := newDCTarget(t, false, incr.Options{RequestTimeout: time.Nanosecond})
	pr, err := a.session().Propose(a.probe(1))
	if err != nil {
		t.Fatalf("Propose failed: %v", err)
	}
	if pr.BudgetExceeded == 0 || pr.Stats.BudgetExceeded == 0 {
		t.Fatalf("no budget-degraded checks under a 1ns deadline: %+v", pr.Stats)
	}
	if pr.Decision != incr.Reject {
		t.Fatal("budget-degraded propose must be rejected conservatively")
	}
	exceeded := 0
	for _, r := range pr.Reports {
		if r.BudgetExceeded {
			exceeded++
			if r.Result.Outcome != inv.Unknown || r.Satisfied {
				t.Fatalf("budget-degraded report must be unknown/unsatisfied, got %v/%v",
					r.Result.Outcome, r.Satisfied)
			}
			if r.Engine != "budget" && !r.Reused {
				t.Fatalf("budget-degraded report engine %q", r.Engine)
			}
		}
	}
	if exceeded != pr.BudgetExceeded {
		t.Fatalf("result counts %d budget-degraded reports, found %d", pr.BudgetExceeded, exceeded)
	}
	if err := a.session().Rollback(); err != nil {
		t.Fatalf("Rollback failed: %v", err)
	}
	if a.session().ProposePending() {
		t.Fatal("session still pending after rollback")
	}
}

// TestFaultHookContainment: a panic in the middle of a group solve (the
// fault vmnd's inject_panic arms) must surface as an Apply error, not a
// crash, and leave the session as it was: the next Apply is bit-identical
// to a twin's that never failed, and to a from-scratch verification.
func TestFaultHookContainment(t *testing.T) {
	hook, armed := faultOnce()
	a := newDCTarget(t, false, incr.Options{FaultHook: hook})
	b := newDCTarget(t, false, incr.Options{})
	before := stateOf(t, a.session())

	armed.Store(true)
	_, err := a.session().Apply(a.changes(0, 2)) // fail FW1: dirties groups, triggers the hook
	if err == nil {
		t.Fatal("Apply swallowed an injected panic")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "injected test fault") {
		t.Fatalf("panic not surfaced in error: %v", err)
	}
	compareState(t, "failed apply", stateOf(t, a.session()), before)

	got, err := a.session().Apply(a.changes(3, 1))
	if err != nil {
		t.Fatalf("Apply after contained panic failed: %v", err)
	}
	twin, err := b.session().Apply(b.changes(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "post-fault vs twin", got, twin)
	compareWitnesses(t, "post-fault vs twin", got, twin)
	compareStatsModuloCache(t, "post-fault vs twin", a.session().LastApply(), b.session().LastApply())
	want := baseline(t, a.session(), core.Options{Engine: core.EngineSAT}, true)
	compareReports(t, "post-fault", got, want)
	compareWitnesses(t, "post-fault", got, want)
}

// faultOnce returns a FaultHook and its switch: once armed, the hook's
// next call disarms it and panics.
func faultOnce() (hook func(string), armed *atomic.Bool) {
	armed = new(atomic.Bool)
	return func(string) {
		if armed.CompareAndSwap(true, false) {
			panic("injected test fault")
		}
	}, armed
}

// TestFailedApplyLeavesNoTrace: a live Apply that fails past validation —
// a panic mid-solve after NodeDown(fw1) was installed — returns the error
// and is undone whole, through Apply, ApplyBatch and the daemon's call
// alike. The session, a restart on its directory and a twin that never
// failed then all report fw1 up, with the same reports, witnesses,
// sequence number, groups and journal. And a failed edit of fw1 is not
// read as fw1's configuration: an edit and its undo after it leave fw1 out
// of the next snapshot.
func TestFailedApplyLeavesNoTrace(t *testing.T) {
	durable := func(dir string, hook func(string)) *dcTarget {
		return newDCTarget(t, false, incr.Options{FaultHook: hook, Persist: &incr.PersistOptions{Dir: dir}})
	}
	dir := t.TempDir()
	hook, armed := faultOnce()
	a, b := durable(dir, hook), durable(t.TempDir(), nil)
	for _, x := range []*dcTarget{a, b} {
		if _, err := x.session().Apply(x.changes(3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s, down := a.session(), []incr.Change{incr.NodeDown(a.d.FW1)}
	for _, c := range []struct {
		name  string
		apply func() error
	}{
		{"Apply", func() error { _, err := s.Apply(down); return err }},
		{"ApplyBatch", func() error { _, err := s.ApplyBatch(down); return err }},
		{"AppendApply", func() error { _, err := s.AppendApply(nil, "", down, false); return err }},
	} {
		armed.Store(true)
		if err := c.apply(); err == nil || !strings.Contains(err.Error(), "injected test fault") {
			t.Fatalf("%s of node_down fw1 over a panicking solve: got %v, want the injected fault", c.name, err)
		}
		if armed.Load() {
			t.Fatalf("%s: the fault never fired", c.name)
		}
	}
	r := durable(dir, nil) // a restart, as after a crash
	if rec := r.session().Recovery(); !rec.Recovered || rec.ColdStart {
		t.Fatalf("restart: %+v, want a warm restart", rec)
	}
	want := b.session().CurrentReports()
	for _, x := range []struct {
		name string
		f    *dcTarget
		runs int // runs past the twin's: a restart's own first run
	}{{"live", a, 0}, {"restart", r, 1}, {"twin", b, 0}} {
		s := x.f.session()
		for _, sc := range s.EffectiveScenarios() {
			if sc.Failed(x.f.d.FW1) {
				t.Fatalf("%s: fw1 is down in %v", x.name, sc.Nodes())
			}
		}
		got := s.CurrentReports()
		compareReports(t, x.name, got, want)
		compareWitnesses(t, x.name, got, want)
		if seq, twin := s.LastApply().Seq, b.session().LastApply().Seq; seq != twin+x.runs {
			t.Fatalf("%s: seq %d, the twin's %d", x.name, seq, twin)
		}
		if keys, twin := s.GroupKeys(), b.session().GroupKeys(); !slices.Equal(keys, twin) {
			t.Fatalf("%s: groups %q, the twin's %q", x.name, keys, twin)
		}
		// A restart replayed the journal, and snapshotted.
		n := s.PersistStatus().JournalRecords + s.Recovery().JournalRecords
		if twin := b.session().PersistStatus().JournalRecords; n != twin || n == 0 {
			t.Fatalf("%s: %d journal records, the twin's %d", x.name, n, twin)
		}
	}

	dir = t.TempDir()
	c := durable(dir, hook)
	fw1 := c.d.FW1
	edited := func(e mbox.ACLEntry) incr.Change {
		fw := cloneFirewall(boxAt(c.d.Net, fw1).(*mbox.LearningFirewall))
		fw.ACL = append([]mbox.ACLEntry{e}, fw.ACL...)
		return incr.BoxSwap(fw1, fw)
	}
	armed.Store(true)
	if _, err := c.session().Apply([]incr.Change{edited(mbox.AllowEntry(bench.ClientPrefix(0), bench.ClientPrefix(1)))}); err == nil {
		t.Fatal("the injected solve failure must fail the edit")
	}
	before := boxAt(c.d.Net, fw1)
	for _, ch := range []incr.Change{edited(mbox.DenyEntry(bench.ClientPrefix(1), bench.ClientPrefix(2))), incr.BoxSwap(fw1, before)} {
		if _, err := c.session().Apply([]incr.Change{ch}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.session().Shutdown(); err != nil {
		t.Fatal(err)
	}
	snap, err := store.ReadSnapshot(filepath.Join(dir, "snapshot.vmn"))
	if state, _, _ := bytes.Cut(snap, []byte(`,"cache":`)); err != nil || bytes.Contains(state, []byte(`"node":"fw1"`)) {
		t.Fatalf("fw1 is back at its configuration, and the snapshot holds a record of it (%v):\n%s", err, state)
	}
}

// TestFailedShadowLeavesNoTrace: a panic mid-solve, after the proposal's
// relabel and invariant addition were installed, fails the Propose and
// leaves the session as it was — state, signatures and network — so the
// next Apply is bit-identical to a twin's that never proposed.
func TestFailedShadowLeavesNoTrace(t *testing.T) {
	hook, armed := faultOnce()
	a := newDCTarget(t, false, incr.Options{FaultHook: hook})
	b := newDCTarget(t, false, incr.Options{})
	d := a.d
	before := stateOf(t, a.session())
	armed.Store(true)
	_, err := a.session().Propose([]incr.Change{
		incr.Relabel(d.Hosts[2][0], "canary"),
		incr.AddInvariant(inv.Reachability{Dst: d.Hosts[1][0], SrcAddr: bench.HostAddr(0, 0), Label: "probe"}),
	})
	if err == nil || !strings.Contains(err.Error(), "injected test fault") {
		t.Fatalf("Propose over a panicking solve: got %v, want the injected fault", err)
	}
	if armed.Load() || a.session().ProposePending() {
		t.Fatal("the fault never fired, or the failed Propose left a transaction pending")
	}
	compareState(t, "failed propose", stateOf(t, a.session()), before)
	ra, errA := a.session().Apply(a.changes(3, 1))
	rb, errB := b.session().Apply(b.changes(3, 1))
	if errA != nil || errB != nil {
		t.Fatalf("apply after the failed propose: %v / %v", errA, errB)
	}
	compareReports(t, "after the failed propose", ra, rb)
	compareWitnesses(t, "after the failed propose", ra, rb)
	compareStatsModuloCache(t, "after the failed propose", a.session().LastApply(), b.session().LastApply())
}

// TestRefusedValuelessChanges: a change carries its value. A FIB update
// without a provider and a reconfiguration without a model are refused,
// by name, before anything moves — through Apply and Propose alike: the
// sequence number, the last stats, the journal and the group table stay
// as they were.
func TestRefusedValuelessChanges(t *testing.T) {
	a := newDCTarget(t, false, incr.Options{Persist: &incr.PersistOptions{Dir: t.TempDir()}})
	s := a.session()
	if _, err := s.Apply(a.changes(0, 2)); err != nil {
		t.Fatal(err)
	}
	last, status, keys := s.LastApply(), s.PersistStatus(), s.GroupKeys()
	for _, c := range []struct {
		ch   incr.Change
		want string
	}{
		{incr.Change{Kind: incr.KindFIB}, "incr: fib update needs a provider"},
		{incr.Change{Kind: incr.KindBoxReconfig, Node: a.d.FW1}, "incr: box-reconfig at fw1 needs a model"},
	} {
		// Behind a change that would move something, so a refusal that came
		// too late would show.
		set := append(a.probe(1), c.ch)
		if _, err := s.Apply(set); err == nil || err.Error() != c.want {
			t.Fatalf("Apply: got %v, want %q", err, c.want)
		}
		if _, err := s.Propose(set); err == nil || err.Error() != c.want {
			t.Fatalf("Propose: got %v, want %q", err, c.want)
		}
		if s.ProposePending() {
			t.Fatal("a refused propose left the session pending")
		}
		if got := s.LastApply(); got != last {
			t.Fatalf("%s: last stats moved: %+v, want %+v", c.want, got, last)
		}
		if got := s.PersistStatus(); got.Seq != status.Seq || got.JournalRecords != status.JournalRecords || got.JournalBytes != status.JournalBytes {
			t.Fatalf("%s: seq or journal moved: %+v, want %+v", c.want, got, status)
		}
		if got := s.GroupKeys(); !slices.Equal(got, keys) {
			t.Fatalf("%s: group table moved: %v, want %v", c.want, got, keys)
		}
	}
	got, err := s.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline(t, s, core.Options{Engine: core.EngineSAT}, true)
	compareReports(t, "after refusals", got, want)
	compareWitnesses(t, "after refusals", got, want)
}

// TestProposeCommitEveryKind: a change-set holding one change of every kind
// ends in bit-identical reports, witnesses and stats through
// Propose+Commit and through Apply, on twin sessions.
func TestProposeCommitEveryKind(t *testing.T) {
	every := func(f *dcTarget) []incr.Change {
		d := f.d
		var ids2 mbox.Model
		for _, b := range d.Net.Boxes {
			if b.Node == d.IDS2 {
				ids2 = b.Model
			}
		}
		fw := cloneFirewall(d.FWPrimary)
		fw.ACL = fw.ACL[1:]
		return []incr.Change{
			incr.NodeDown(d.FW2),
			incr.NodeUp(d.Hosts[0][0]),
			shadowRule(d, d.Agg, tf.Rule{Match: bench.ClientPrefix(1), In: topo.NodeNone, Out: d.FW1, Priority: 11}),
			incr.BoxRemove(d.IDS2),
			incr.BoxSwap(d.IDS2, ids2),
			incr.BoxSwap(d.FW1, fw),
			incr.Relabel(d.Hosts[2][0], "canary"),
			incr.AddInvariant(inv.Reachability{Dst: d.Hosts[1][0], SrcAddr: bench.HostAddr(0, 0), Label: "probe"}),
			incr.RemoveInvariant(d.IsolationInvariant(0, 1).Name()),
		}
	}
	a, b := newDCTarget(t, false, incr.Options{}), newDCTarget(t, false, incr.Options{})
	pr, err := a.session().Propose(every(a))
	if err != nil {
		t.Fatalf("Propose failed: %v", err)
	}
	committed, err := a.session().Commit()
	if err != nil {
		t.Fatalf("Commit failed: %v", err)
	}
	direct, err := b.session().Apply(every(b))
	if err != nil {
		t.Fatalf("direct Apply failed: %v", err)
	}
	compareReports(t, "every kind", committed, direct)
	compareWitnesses(t, "every kind", committed, direct)
	compareWitnesses(t, "every kind vs propose result", committed, pr.Reports)
	compareStats(t, "every kind", a.session().LastApply(), b.session().LastApply())
	want := baseline(t, b.session(), core.Options{Engine: core.EngineSAT}, true)
	compareReports(t, "every kind vs scratch", direct, want)
	compareWitnesses(t, "every kind vs scratch", direct, want)
}

// proposeCases are BenchmarkPropose's proposals on the last tenant of a
// vpcPairs session: a firewall allow no slice reads, a relabel out of its
// class (accepted, regrouped), and that relabel with a deny of the public
// prefix (rejected, repair searched).
func proposeCases(pairs map[string][2][]incr.Change) map[string][]incr.Change {
	return map[string][]incr.Change{
		"dead":   pairs["dead"][0],
		"live":   pairs["relabel"][0][:1],
		"reject": pairs["relabel"][0],
	}
}

// TestProposeFollowsTheChange: a proposal costs what it changes. After the
// base reply is rendered once, a dead edit proposed through the daemon's
// call and rolled back allocates about the same at 256 and at 2 048
// tenants, and under 32 KiB: the shadow run copies no container. Under the
// race detector, whose sync.Pool drops items at random (an encoding/json
// state missed is ~1 KB more), a round costs the fewest bytes of three.
func TestProposeFollowsTheChange(t *testing.T) {
	cost := func(tenants int) uint64 {
		sess, pairs := vpcPairs(t, tenants)
		dead := proposeCases(pairs)["dead"]
		buf := sess.AppendResult(nil, "", false)
		round := func() {
			var err error
			if buf, err = sess.AppendPropose(buf[:0], "", dead); err != nil {
				t.Fatal(err)
			}
			if err := sess.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		round() // a round first: lazily built state settles
		_, bytes := measure(round)
		for i := 1; raceEnabled && i < 3; i++ {
			_, again := measure(round)
			bytes = min(bytes, again)
		}
		return bytes
	}
	small, bytes := cost(256), cost(2048)
	t.Logf("dead-edit propose+rollback: %d bytes at 256 tenants, %d at 2048", small, bytes)
	if float64(bytes) > 1.1*float64(small) {
		t.Errorf("a dead-edit proposal's bytes follow the network: %d at 256 tenants, %d at 2048", small, bytes)
	}
	if bytes >= 32<<10 {
		t.Errorf("a dead-edit proposal allocated %d bytes at 2048 tenants, want < 32 KiB", bytes)
	}
}

// BenchmarkPropose is the daemon's propose call and a rollback on a 2 048-
// tenant VPC whose base reply was rendered first, one case per
// proposeCases entry.
func BenchmarkPropose(b *testing.B) {
	for _, name := range []string{"dead", "live", "reject"} {
		b.Run(name, func(b *testing.B) {
			sess, pairs := vpcPairs(b, 2048)
			cs := proposeCases(pairs)[name]
			buf := sess.AppendResult(nil, "", false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = sess.AppendPropose(buf[:0], "", cs); err != nil {
					b.Fatal(err)
				}
				if err := sess.Rollback(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
