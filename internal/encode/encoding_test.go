package encode

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/logic"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/smt"
	"github.com/netverify/vmn/internal/testnet"
	"github.com/netverify/vmn/internal/topo"
)

// sameResult compares outcome and trace bit-for-bit.
func sameResult(t *testing.T, label string, got, want inv.Result) {
	t.Helper()
	if got.Outcome != want.Outcome {
		t.Fatalf("%s: outcome %v, want %v", label, got.Outcome, want.Outcome)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d, want %d (%v vs %v)", label, len(got.Trace), len(want.Trace), got.Trace, want.Trace)
	}
	for i := range got.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace event %d: %v, want %v", label, i, got.Trace[i], want.Trace[i])
		}
	}
}

// TestSliceEncodingSharedSolvesMatchFresh drives one shared encoding
// through a sequence of distinct and repeated invariants and checks every
// verdict and trace against a fresh-per-invariant solve of the same
// problem. Canonical witness extraction makes the comparison exact even
// though the shared solver is warm and the fresh one cold.
func TestSliceEncodingSharedSolvesMatchFresh(t *testing.T) {
	fw := &mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true}
	f := testnet.NewFirewallPair(fw)
	mk := func(i inv.Invariant) *inv.Problem {
		return f.Problem(i, topo.NoFailures())
	}
	seq := []inv.Invariant{
		inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, // violated (default allow)
		inv.FlowIsolation{Dst: f.HA, SrcAddr: f.AddrB},   // violated
		inv.Reachability{Dst: f.HB, SrcAddr: f.AddrA},    // "violated" = reachable
		inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, // repeat: activation reuse
		inv.SimpleIsolation{Dst: f.HB, SrcAddr: f.AddrA}, // violated the other way
	}
	opts := Options{}
	enc, err := NewSliceEncoding(mk(seq[0]), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, iv := range seq {
		p := mk(iv)
		shared, err := enc.Verify(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Verify(mk(iv), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, iv.Name(), shared, fresh)
		if i > 0 && shared.Outcome == inv.Violated && len(shared.Trace) == 0 {
			t.Fatalf("%s: violated without a trace", iv.Name())
		}
	}
	if enc.solves != int64(len(seq)) {
		t.Fatalf("encoding served %d solves, want %d", enc.solves, len(seq))
	}
}

// TestSliceEncodingHoldsDoNotPoison checks that a trivially-unreachable
// bad formula (grounded to false) is answered without touching the shared
// solver — a later satisfiable invariant must still solve on the same
// encoding.
func TestSliceEncodingHoldsDoNotPoison(t *testing.T) {
	fw := &mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true}
	f := testnet.NewFirewallPair(fw)
	p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	enc, err := NewSliceEncoding(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An isolation invariant about an address no alphabet packet carries:
	// its grounded bad is the empty disjunction.
	ghost := inv.SimpleIsolation{Dst: f.HA, SrcAddr: pkt.MustParseAddr("203.0.113.9")}
	pg := f.Problem(ghost, topo.NoFailures())
	pg.Samples = p.Samples // same alphabet, so the encoding stays valid
	r, err := enc.Verify(pg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != inv.Holds {
		t.Fatalf("unreachable bad must hold, got %v", r.Outcome)
	}
	r, err = enc.Verify(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != inv.Violated {
		t.Fatalf("shared solver must stay usable after a trivial hold, got %v", r.Outcome)
	}
}

// TestEncodingKeyDistinguishesContent: problems differing in schedule
// bound, conflict budget or samples must not share an encoding key; identical
// problems must.
func TestEncodingKeyDistinguishesContent(t *testing.T) {
	fw := mbox.NewLearningFirewall("fw")
	f := testnet.NewFirewallPair(fw)
	base := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	key := func(p *inv.Problem, o Options) string {
		b, ok := AppendEncodingKey(nil, p, o)
		if !ok {
			t.Fatal("fixture boxes must be fingerprintable")
		}
		return string(b)
	}
	k0 := key(base, Options{})
	if k1 := key(f.Problem(inv.FlowIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures()), Options{}); k1 != k0 {
		t.Fatal("the invariant itself must not enter the encoding key")
	}
	bumped := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	bumped.MaxSends++
	if key(bumped, Options{}) == k0 {
		t.Fatal("schedule bound must perturb the key")
	}
	if key(base, Options{MaxConflicts: 3}) == k0 {
		t.Fatal("conflict budget must perturb the key")
	}
	fewer := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
	fewer.Samples = fewer.Samples[:len(fewer.Samples)-1]
	if key(fewer, Options{}) == k0 {
		t.Fatal("the packet alphabet must perturb the key")
	}
	if key(f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.Failures(f.FW)), Options{}) == k0 {
		t.Fatal("the failure scenario must perturb the key")
	}
}

// violatedFamilies lists fixture problems whose invariants are all
// violated, one family per fixture: the problems of a family differ only in
// the invariant, so they share an encoding.
func violatedFamilies() [][]*inv.Problem {
	allow := func() *mbox.LearningFirewall { return &mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true} }
	fw := testnet.NewFirewallPair(allow())
	cg := testnet.NewCacheGroup(mbox.NewContentCache("cache"), allow())
	ids := testnet.NewIDSFragment(testnet.NewIDSRegistry())
	// wide puts 29 more hA→hB flows in front of the pair's alphabet, so the
	// violating choices sit at the end of a 32-choice row.
	wide := func(i inv.Invariant) *inv.Problem {
		p := fw.Problem(i, topo.NoFailures())
		var flows []inv.Sample
		for port := pkt.Port(3000); port < 3029; port++ {
			flows = append(flows, inv.Sample{Sender: fw.HA, Hdr: pkt.Header{Src: fw.AddrA, Dst: fw.AddrB, SrcPort: port, DstPort: 80, Proto: pkt.TCP}})
		}
		p.Samples = append(flows, p.Samples...)
		return p
	}
	return [][]*inv.Problem{{
		fw.Problem(inv.SimpleIsolation{Dst: fw.HA, SrcAddr: fw.AddrB}, topo.NoFailures()),
		fw.Problem(inv.FlowIsolation{Dst: fw.HA, SrcAddr: fw.AddrB}, topo.NoFailures()),
		fw.Problem(inv.Reachability{Dst: fw.HB, SrcAddr: fw.AddrA}, topo.NoFailures()),
		fw.Problem(inv.SimpleIsolation{Dst: fw.HB, SrcAddr: fw.AddrA}, topo.NoFailures()),
	}, {
		cg.Problem(inv.DataIsolation{Dst: cg.H2, Origin: cg.AddrS}),
		cg.Problem(inv.DataIsolation{Dst: cg.H1, Origin: cg.AddrS}),
		cg.Problem(inv.SimpleIsolation{Dst: cg.H2, SrcAddr: cg.AddrS}),
	}, {
		ids.Problem(inv.SimpleIsolation{Dst: ids.Host, SrcAddr: ids.AddrPeer}, 3),
		ids.Problem(inv.Reachability{Dst: ids.Host, SrcAddr: ids.AddrPeer}, 3),
	}, {
		wide(inv.SimpleIsolation{Dst: fw.HA, SrcAddr: fw.AddrB}),
		wide(inv.FlowIsolation{Dst: fw.HA, SrcAddr: fw.AddrB}),
	}}
}

// eachViolated verifies every violatedFamilies problem on a cold encoding
// of its own and on one warm encoding that served the family's earlier
// problems first, and hands each Violated result to check with the
// encoding's Solves delta for the call.
func eachViolated(t *testing.T, check func(label string, enc *SliceEncoding, p *inv.Problem, r inv.Result, solves int64)) {
	t.Helper()
	for fi, fam := range violatedFamilies() {
		opts := Options{}
		warm, err := NewSliceEncoding(fam[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range fam {
			cold, err := NewSliceEncoding(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			for ei, enc := range []*SliceEncoding{cold, warm} {
				label := fmt.Sprintf("family %d %s %s", fi, []string{"cold", "warm"}[ei], p.Invariant.Name())
				before := enc.SolverStats().SolveCalls
				r, err := enc.Verify(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if r.Outcome != inv.Violated {
					t.Fatalf("%s: %v, want violated", label, r.Outcome)
				}
				check(label, enc, p, r, enc.SolverStats().SolveCalls-before)
			}
		}
	}
}

// TestWitnessExtractionSolveBound: a violated check costs its deciding
// solve plus at most ⌈log₂(|choices|+1)⌉ solves per schedule step, whatever
// the solver history.
func TestWitnessExtractionSolveBound(t *testing.T) {
	eachViolated(t, func(label string, _ *SliceEncoding, p *inv.Problem, _ inv.Result, solves int64) {
		choices := len(p.Samples) * len(p.ClassAssignments())
		if bound := int64(1 + p.MaxSends*bits.Len(uint(choices))); solves > bound {
			t.Fatalf("%s: %d solves, bound 1 + %d·⌈log₂(%d+1)⌉ = %d", label, solves, p.MaxSends, choices, bound)
		}
	})
}

// linearLexMin is the reference canonical witness: from a fresh model of
// act, try each step's choices in order below the current one and keep the
// first feasible one given the steps already fixed; then check the whole
// schedule is satisfiable and read its trace by replaying it.
func linearLexMin(t *testing.T, e *SliceEncoding, act smt.Form) ([]int, []logic.Event) {
	t.Helper()
	ctx := e.ctx
	sched := make([]int, e.K)
	read := func() {
		for s := range sched {
			for c, sel := range e.sel[s] {
				if ctx.EvalForm(sel) == sat.True {
					sched[s] = c
					break
				}
			}
		}
	}
	if ctx.SolveAssuming(act) != sat.Sat {
		t.Fatal("reference: bad is unsatisfiable")
	}
	read()
	assume := []smt.Form{act}
	for s := range sched {
		for c := 0; c < sched[s]; c++ {
			if ctx.SolveAssuming(append(assume, e.sel[s][c])...) == sat.Sat {
				read()
				break
			}
		}
		assume = append(assume, e.sel[s][sched[s]])
	}
	if ctx.SolveAssuming(assume...) != sat.Sat {
		t.Fatal("reference: the scanned schedule is unsatisfiable")
	}
	return sched, e.replay(sched)
}

// TestExtractTraceMatchesLinearLexMin checks the binary-search extraction
// against the linear reference: the same schedule from a fresh model, and
// Verify's trace equal to the reference's, on cold and warm encodings.
func TestExtractTraceMatchesLinearLexMin(t *testing.T) {
	eachViolated(t, func(label string, enc *SliceEncoding, p *inv.Problem, r inv.Result, _ int64) {
		act, ok := enc.activate(p)
		if !ok || enc.ctx.SolveAssuming(act) != sat.Sat {
			t.Fatalf("%s: bad is unsatisfiable", label)
		}
		got := enc.lexMinSchedule(act)
		want, trace := linearLexMin(t, enc, act)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: schedule %v, reference %v", label, got, want)
		}
		sameResult(t, label, r, inv.Result{Outcome: inv.Violated, Trace: trace})
	})
}
