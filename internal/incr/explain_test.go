package incr_test

// Observability-facing session behaviour: dirtying provenance (explain)
// records for every dependency channel, completeness of those records
// over the churn change stream, session-lifetime totals surviving
// transactions bit-exactly, the slow-solve NDJSON log, and the metrics /
// trace instrumentation a daemon attaches via Options.Obs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

var explainSources = map[string]bool{
	incr.SourceExactHit:           true,
	incr.SourceCanonHit:           true,
	incr.SourceCanonHitTranslated: true,
	incr.SourceFreshSolve:         true,
	incr.SourceCanonShared:        true,
	incr.SourceBudgetExceeded:     true,
}

// checkExplainRecords asserts the provenance invariants that hold after
// every Apply: one record per dirty group, members summing to the dirty
// invariant count, a named cause on every record (with the witness node
// and — for refined FIB dirtying — the witness read atom), and a valid
// verdict source for every per-scenario check.
func checkExplainRecords(t *testing.T, step string, sess *incr.Session) {
	t.Helper()
	st := sess.LastApply()
	recs := sess.Explain()
	if len(recs) != st.DirtyGroups {
		t.Fatalf("%s: %d explain records for %d dirty groups", step, len(recs), st.DirtyGroups)
	}
	members := 0
	scens := len(sess.EffectiveScenarios())
	for _, r := range recs {
		members += len(r.Members)
		if r.Seq != st.Seq {
			t.Fatalf("%s: record %q has seq %d, apply was %d", step, r.GroupKey, r.Seq, st.Seq)
		}
		if r.GroupKey == "" || len(r.Members) == 0 {
			t.Fatalf("%s: record without identity: %+v", step, r)
		}
		switch r.Cause.Reason {
		case incr.CauseFull, incr.CauseNewGroup, incr.CauseBudgetRetry:
			if r.Cause.Change != -1 {
				t.Fatalf("%s: %s cause must be unattributed: %+v", step, r.Cause.Reason, r.Cause)
			}
		case incr.CauseNode, incr.CauseFIB, incr.CauseFIBAtom, incr.CauseBoxConfig:
			if !r.Cause.HasNode {
				t.Fatalf("%s: %s cause without witness node: %+v", step, r.Cause.Reason, r.Cause)
			}
			if r.Cause.Reason == incr.CauseFIBAtom && !r.Cause.HasAtom {
				t.Fatalf("%s: fib_atom cause without witness atom: %+v", step, r.Cause)
			}
			// Single-change churn steps are always attributable.
			if r.Cause.Change != 0 || r.Cause.ChangeDesc == "" {
				t.Fatalf("%s: %s cause not attributed to the change: %+v", step, r.Cause.Reason, r.Cause)
			}
		default:
			t.Fatalf("%s: unknown cause reason %q", step, r.Cause.Reason)
		}
		if len(r.Checks) != scens {
			t.Fatalf("%s: record %q has %d checks for %d scenarios", step, r.GroupKey, len(r.Checks), scens)
		}
		for _, c := range r.Checks {
			if !explainSources[c.Source] {
				t.Fatalf("%s: unknown verdict source %q in %+v", step, c.Source, r)
			}
		}
	}
	if members != st.DirtyInvariants {
		t.Fatalf("%s: explain members %d != dirty invariants %d", step, members, st.DirtyInvariants)
	}
}

// TestExplainCauses drives one change per dependency channel and pins the
// cause each produces: liveness → node, a FIB update at the shared
// aggregation switch → fib_atom with the witness (node, atom), and the
// node-granularity escape hatch → coarse fib at the same switch.
func TestExplainCauses(t *testing.T) {
	dp, sp := newDCSession(t, 3)

	// Initial verification: everything dirty, cause "full", unattributed.
	for _, r := range sp.Explain() {
		if r.Cause.Reason != incr.CauseFull || r.Cause.Change != -1 {
			t.Fatalf("initial records must be full/unattributed: %+v", r.Cause)
		}
	}

	// Liveness: the host is in its pair-groups' footprints.
	h := dp.Hosts[0][0]
	if _, err := sp.Apply([]incr.Change{incr.NodeDown(h)}); err != nil {
		t.Fatal(err)
	}
	recs := sp.Explain()
	if len(recs) == 0 {
		t.Fatal("node-down dirtied nothing")
	}
	for _, r := range recs {
		if r.Cause.Reason != incr.CauseNode || r.Cause.Node != h {
			t.Fatalf("want node cause at %d, got %+v", h, r.Cause)
		}
		if r.Cause.ChangeDesc == "" {
			t.Fatalf("node cause must describe the change: %+v", r.Cause)
		}
	}
	checkExplainRecords(t, "node-down", sp)

	// Refined FIB: a steering rule for group 1's client prefix at the agg.
	rule := tf.Rule{Match: bench.ClientPrefix(1), In: topo.NodeNone, Out: dp.FW1, Priority: 11}
	if _, err := sp.Apply([]incr.Change{shadowRule(dp, dp.Agg, rule)}); err != nil {
		t.Fatal(err)
	}
	recs = sp.Explain()
	if len(recs) == 0 {
		t.Fatal("agg FIB update dirtied nothing")
	}
	for _, r := range recs {
		if r.Cause.Reason != incr.CauseFIBAtom || r.Cause.Node != dp.Agg || !r.Cause.HasAtom {
			t.Fatalf("want fib_atom cause at agg with witness, got %+v", r.Cause)
		}
		if !bench.ClientPrefix(1).Matches(r.Cause.Atom) {
			t.Fatalf("witness atom %v outside the changed prefix %v", r.Cause.Atom, bench.ClientPrefix(1))
		}
		if got, ok := sp.ExplainGroup(r.GroupKey); !ok || got.GroupKey != r.GroupKey {
			t.Fatalf("ExplainGroup(%q) lookup failed", r.GroupKey)
		}
	}
	checkExplainRecords(t, "agg-fib", sp)
	if _, ok := sp.ExplainGroup("no such group"); ok {
		t.Fatal("ExplainGroup must miss on unknown keys")
	}

	// The agg is in every footprint: the groups the fib_atom causes did not
	// name are the ones element-level dirtying would have re-verified too.
	if st := sp.LastApply(); st.RefinedClean == 0 || st.RefinedClean != st.Groups-st.DirtyGroups {
		t.Fatalf("every group without a cause should be refined-clean: %+v", st)
	}
}

// TestExplainCauseIsDeterministic: when two changed tables, or two edited
// boxes, in one footprint both dirty a group, the cause names the one with
// the lower NodeID on every run — not whichever an impact's map visits
// first. Each change-set runs on fresh sessions over the ISP backbone,
// where a peering's traffic crosses ids<i> then fw<i>.
func TestExplainCauseIsDeterministic(t *testing.T) {
	open := func(t *testing.T) (*core.Network, *incr.Session, topo.NodeID, topo.NodeID) {
		net, invs, err := netdesc.Build(netdesc.ISPBackbone(netdesc.ISPBackboneConfig{Peerings: 2, Subnets: 3}), "")
		if err != nil {
			t.Fatal(err)
		}
		sess, _, err := incr.NewSession(net, core.Options{}, invs, incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return net, sess, net.Topo.MustByName("ids0").ID, net.Topo.MustByName("fw0").ID
	}
	model := func(net *core.Network, n topo.NodeID) mbox.Model {
		return net.Boxes[slices.IndexFunc(net.Boxes, func(b mbox.Instance) bool { return b.Node == n })].Model
	}
	subnet0 := pkt.Prefix{Addr: pkt.MustParseAddr("10.0.0.0"), Len: 16}
	for name, tc := range map[string]struct {
		reason  string
		changes func(net *core.Network, ids, fw topo.NodeID) []incr.Change
	}{
		"boxes": {incr.CauseBoxConfig, func(net *core.Network, ids, fw topo.NodeID) []incr.Change {
			idps := *model(net, ids).(*mbox.IDPS)
			idps.Watched = nil
			lfw := cloneFirewall(model(net, fw).(*mbox.LearningFirewall))
			lfw.ACL = append([]mbox.ACLEntry{mbox.DenyEntry(pkt.Prefix{Addr: pkt.MustParseAddr("8.0.0.0"), Len: 8}, subnet0)}, lfw.ACL...)
			return []incr.Change{incr.BoxSwap(fw, lfw), incr.BoxSwap(ids, &idps)}
		}},
		"tables": {incr.CauseFIBAtom, func(net *core.Network, ids, fw topo.NodeID) []incr.Change {
			fib := maps.Clone(net.FIBFor(topo.NoFailures()))
			for _, n := range []topo.NodeID{ids, fw} {
				// The same next hop under a rule of its own: the matching
				// subsequence for the subnet's addresses changes, the walk
				// does not.
				out := fib[n][0].Out
				fib[n] = append([]tf.Rule{{Match: subnet0, In: topo.NodeNone, Out: out, Priority: 15}}, fib[n]...)
			}
			return []incr.Change{incr.FIBUpdate(func(topo.FailureScenario) tf.FIB { return fib })}
		}},
	} {
		t.Run(name, func(t *testing.T) {
			var want map[string]incr.DirtyCause
			for run := 0; run < 16; run++ {
				net, sess, ids, fw := open(t)
				if _, err := sess.Apply(tc.changes(net, ids, fw)); err != nil {
					t.Fatal(err)
				}
				got := map[string]incr.DirtyCause{}
				both := 0
				for _, r := range sess.Explain() {
					got[r.GroupKey] = r.Cause
					if r.Cause.Reason != tc.reason {
						t.Fatalf("run %d: %q dirtied by %+v, want %s", run, r.GroupKey, r.Cause, tc.reason)
					}
					if r.Cause.Node == ids {
						both++
					}
				}
				if both == 0 {
					t.Fatalf("run %d: no group names ids0 (%v): the change-set does not test the order", run, got)
				}
				if run == 0 {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: causes %v, run 0 had %v", run, got, want)
				}
			}
		})
	}
}

// TestExplainChurnCompleteness runs the datacenter churn stream (the
// bench scenario: policy relabels, host liveness toggles, forwarding
// updates at the shared aggregation switch) and asserts that EVERY
// re-verified group gets a provenance record naming its dirtying change —
// down to the witness read atom for refined FIB dirtying — with a valid
// verdict source per scenario. This is the explain completeness
// guarantee: nothing re-verifies without saying why.
func TestExplainChurnCompleteness(t *testing.T) {
	const G, steps = 6, 15
	d := bench.NewDatacenter(bench.DCConfig{Groups: G, HostsPerGroup: 1})
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT},
		d.AllIsolationInvariants(), incr.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	baseFIB := d.Net.FIBFor
	overlay := map[topo.NodeID][]tf.Rule{}
	orig := map[topo.NodeID]string{}
	hostDown := map[topo.NodeID]bool{}
	sawAtom := false
	for step := 0; step < steps; step++ {
		g := rng.Intn(G)
		var ch incr.Change
		switch step % 3 {
		case 0: // policy relabel toggle
			h := d.Hosts[g][0]
			if cls, ok := orig[h]; ok {
				delete(orig, h)
				ch = incr.Relabel(h, cls)
			} else {
				orig[h] = d.Net.PolicyClass[h]
				ch = incr.Relabel(h, fmt.Sprintf("churn-%d", g))
			}
		case 1: // host liveness toggle
			h := d.Hosts[g][0]
			if hostDown[h] {
				delete(hostDown, h)
				ch = incr.NodeUp(h)
			} else {
				hostDown[h] = true
				ch = incr.NodeDown(h)
			}
		case 2: // steering toggle at the shared aggregation switch
			if len(overlay[d.Agg]) > 0 {
				delete(overlay, d.Agg)
			} else {
				overlay[d.Agg] = []tf.Rule{{
					Match: bench.ClientPrefix(g), In: topo.NodeNone, Out: d.FW1, Priority: 11,
				}}
			}
			ch = incr.FIBUpdate(overlayFIBFor(baseFIB, overlay))
		}
		if _, err := sess.Apply([]incr.Change{ch}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkExplainRecords(t, fmt.Sprintf("step %d", step), sess)
		for _, r := range sess.Explain() {
			if r.Cause.Reason == incr.CauseFIBAtom {
				sawAtom = true
			}
		}
	}
	if !sawAtom {
		t.Fatal("churn stream never exercised the fib_atom provenance path")
	}
}

// TestTotalsAccounting pins the lifetime-counter contract across
// transactions: a rolled-back Propose leaves Totals bit-identical to
// never having proposed, and Propose+Commit accumulates exactly what the
// equivalent direct Apply would have.
func TestTotalsAccounting(t *testing.T) {
	build := func() (*bench.Datacenter, *incr.Session) {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
		s, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT, Workers: 1},
			d.AllIsolationInvariants(), incr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return d, s
	}
	dTx, sTx := build()
	_, sDirect := build()

	warm := func(d *bench.Datacenter, s *incr.Session) {
		if _, err := s.Apply([]incr.Change{incr.NodeDown(d.Hosts[2][0])}); err != nil {
			t.Fatal(err)
		}
	}
	warm(dTx, sTx)
	warm(dTx, sDirect) // same node ids across twin networks

	// Rollback: totals (and explain records) restore bit-exactly.
	before := sTx.TotalStats()
	beforeRecs := sTx.Explain()
	if _, err := sTx.Propose([]incr.Change{incr.NodeDown(dTx.FW1)}); err != nil {
		t.Fatal(err)
	}
	if sTx.TotalStats() != before {
		t.Fatal("live totals must stay untouched while a propose is pending")
	}
	if err := sTx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := sTx.TotalStats(); got != before {
		t.Fatalf("rollback must restore totals: got %+v, want %+v", got, before)
	}
	afterRecs := sTx.Explain()
	if len(afterRecs) != len(beforeRecs) {
		t.Fatalf("rollback must restore explain records: %d vs %d", len(afterRecs), len(beforeRecs))
	}
	for i := range afterRecs {
		if afterRecs[i].GroupKey != beforeRecs[i].GroupKey || afterRecs[i].Seq != beforeRecs[i].Seq {
			t.Fatalf("rollback changed explain record %d", i)
		}
	}

	// Commit: identical accumulation to the direct path.
	if _, err := sTx.Propose([]incr.Change{incr.NodeDown(dTx.FW1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sTx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := sDirect.Apply([]incr.Change{incr.NodeDown(dTx.FW1)}); err != nil {
		t.Fatal(err)
	}
	if a, b := sTx.TotalStats(), sDirect.TotalStats(); a != b {
		t.Fatalf("propose+commit totals diverge from direct apply:\n tx     %+v\n direct %+v", a, b)
	}
}

// TestProposeSurfacesRefinedClean pins that a Propose result reports the
// refinement savings of its shadow run: a steering-rule change at the
// shared aggregation switch intersects every group's footprint, but the
// refined index keeps the groups without read atoms under the changed
// prefix clean — and the count surfaces in the result for deployment
// pipelines to read.
func TestProposeSurfacesRefinedClean(t *testing.T) {
	dp, sp := newDCSession(t, 4)
	rule := tf.Rule{Match: bench.ClientPrefix(0), In: topo.NodeNone, Out: dp.FW1, Priority: 11}
	pr, err := sp.Propose([]incr.Change{shadowRule(dp, dp.Agg, rule)})
	if err != nil {
		t.Fatal(err)
	}
	if pr.RefinedClean == 0 {
		t.Fatalf("shadow run at the shared agg must report refinement savings: %+v", pr.Stats)
	}
	if pr.RefinedClean != pr.Stats.RefinedClean {
		t.Fatalf("result (%d) and shadow stats (%d) disagree on refined-clean",
			pr.RefinedClean, pr.Stats.RefinedClean)
	}
	if err := sp.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowSolveLog pins the slow-solve NDJSON shape: with a 1ns threshold
// every fresh solve logs one line carrying the invariant, scenario,
// canonical class key, class size, engine, duration and conflict count.
func TestSlowSolveLog(t *testing.T) {
	var buf bytes.Buffer
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT, Workers: 1},
		d.AllIsolationInvariants(), incr.Options{
			SlowSolve: time.Nanosecond, SlowSolveWriter: &buf,
		})
	if err != nil {
		t.Fatal(err)
	}
	st := sess.LastApply()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != st.CacheMisses {
		t.Fatalf("%d slow-solve lines for %d fresh solves:\n%s", len(lines), st.CacheMisses, buf.Bytes())
	}
	for _, line := range lines {
		var rec struct {
			Event      string `json:"event"`
			Invariant  string `json:"invariant"`
			Scenario   int    `json:"scenario"`
			ClassKey   string `json:"class_key"`
			Invariants int    `json:"invariants"`
			Engine     string `json:"engine"`
			DurationNs int64  `json:"duration_ns"`
			Conflicts  int64  `json:"conflicts"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("slow-solve line not JSON: %q (%v)", line, err)
		}
		if rec.Event != "slow_solve" || rec.Invariant == "" || rec.ClassKey == "" ||
			rec.Invariants < 1 || rec.Engine == "" {
			t.Fatalf("incomplete slow-solve record: %q", line)
		}
	}
	// Above threshold nothing logs.
	buf.Reset()
	sess2, _, err := incr.NewSession(
		bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1}).Net,
		core.Options{Engine: core.EngineSAT, Workers: 1}, d.AllIsolationInvariants(),
		incr.Options{SlowSolve: time.Hour, SlowSolveWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	_ = sess2
	if buf.Len() != 0 {
		t.Fatalf("nothing should log under a 1h threshold: %s", buf.Bytes())
	}
}

// TestSessionInstrumentation attaches a full observability instance and
// asserts the metric and span surfaces a daemon scrapes: lifetime
// counters move with applies, gauges track the group/invariant counts,
// and the tracer yields a span tree rooted at each apply.
func TestSessionInstrumentation(t *testing.T) {
	o := obs.New(128)
	d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT, Workers: 1},
		d.AllIsolationInvariants(), incr.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply([]incr.Change{incr.NodeDown(d.Hosts[0][0])}); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	if snap["vmn_incr_applies_total"] != 2 {
		t.Fatalf("want 2 applies counted, got %v", snap["vmn_incr_applies_total"])
	}
	if snap["vmn_incr_solves_total"] < 1 {
		t.Fatalf("initial verification must count solves: %v", snap["vmn_incr_solves_total"])
	}
	if snap["vmn_incr_groups"] != 6 || snap["vmn_incr_invariants"] != 6 {
		t.Fatalf("gauges wrong: groups=%v invariants=%v", snap["vmn_incr_groups"], snap["vmn_incr_invariants"])
	}
	if snap["vmn_core_encoding_cache_misses"] < 1 {
		t.Fatalf("core cache stats not exported: %v", snap["vmn_core_encoding_cache_misses"])
	}

	spans := o.Trace.Drain()
	if len(spans) == 0 {
		t.Fatal("tracer captured nothing")
	}
	byID := map[int64]obs.SpanRecord{}
	roots, applies := 0, 0
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots++
		} else if _, ok := byID[sp.Parent]; !ok {
			t.Fatalf("span %d has dangling parent %d", sp.ID, sp.Parent)
		}
		if sp.Name == "apply" {
			applies++
		}
	}
	if applies != 2 {
		t.Fatalf("want 2 apply root spans, got %d (roots %d)", applies, roots)
	}
	if again := o.Trace.Drain(); len(again) != 0 {
		t.Fatalf("drain must clear the ring, got %d spans", len(again))
	}

	// The disabled path: a nil Obs absorbs everything (this is the default
	// for every other test in the package, but pin the accessor too).
	if sess.Observability() != o {
		t.Fatal("Observability accessor lost the instance")
	}
}
