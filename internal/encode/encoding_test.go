package encode

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
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

// linearLexMin is the reference canonical witness over the whole
// alphabet, sharing nothing with the idle mapping: on an eager encoding of
// p, every choice admitted and rest meaning "do nothing", it takes a fresh
// model of p's bad formula, tries each step's choices in alphabet order
// below the current one and keeps the first feasible one given the steps
// already fixed; then it checks the whole schedule is satisfiable and
// reads its trace by replaying it.
func linearLexMin(t *testing.T, p *inv.Problem) ([]int, []logic.Event) {
	t.Helper()
	e, err := NewSliceEncoding(p, Options{GroundAllReadKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	none := len(e.choices)
	if e.idle != none {
		t.Fatalf("reference: eager encoding admitted %d of %d choices", len(e.admitted), none)
	}
	ctx := e.ctx
	selector := func(s, c int) smt.Form {
		if c == none {
			return e.rest[s]
		}
		return e.sel[c][s]
	}
	sched := make([]int, e.K)
	read := func() {
		for s := range sched {
			sched[s] = none
			for c := range none {
				if ctx.EvalForm(e.sel[c][s]) == sat.True {
					sched[s] = c
					break
				}
			}
		}
	}
	act, ok := e.activate(p)
	if !ok || ctx.SolveAssuming(act) != sat.Sat {
		t.Fatal("reference: bad is unsatisfiable")
	}
	read()
	assume := []smt.Form{act}
	for s := range sched {
		for c := 0; c < sched[s]; c++ {
			if ctx.SolveAssuming(append(assume, selector(s, c))...) == sat.Sat {
				read()
				break
			}
		}
		assume = append(assume, selector(s, sched[s]))
	}
	if ctx.SolveAssuming(assume...) != sat.Sat {
		t.Fatal("reference: the scanned schedule is unsatisfiable")
	}
	return sched, e.replay(sched)
}

// TestExtractTraceMatchesLinearLexMin checks the binary-search extraction
// over a cone's candidates against the whole-alphabet linear reference:
// the same schedule from a fresh model, and Verify's trace equal to the
// reference's, on cold and warm encodings.
func TestExtractTraceMatchesLinearLexMin(t *testing.T) {
	eachViolated(t, func(label string, enc *SliceEncoding, p *inv.Problem, r inv.Result, _ int64) {
		act, ok := enc.activate(p)
		if !ok || enc.ctx.SolveAssuming(act) != sat.Sat {
			t.Fatalf("%s: bad is unsatisfiable", label)
		}
		got := enc.lexMinSchedule(act)
		want, trace := linearLexMin(t, p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: schedule %v, reference %v", label, got, want)
		}
		sameResult(t, label, r, inv.Result{Outcome: inv.Violated, Trace: trace})
	})
}

// TestDontCareStepPicksIdle: a witness step the violation does not need
// picks the least choice outside the invariant's cone, as the
// whole-alphabet witness does, and the trace replays that choice's
// journey. On violatedFamilies' wide firewall pair, B reaching A needs one
// step, and the 29 flows in front of the pair's alphabet set state no
// guard reads.
func TestDontCareStepPicksIdle(t *testing.T) {
	p := violatedFamilies()[3][0]
	enc, err := NewSliceEncoding(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := enc.Verify(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	act, _ := enc.activate(p)
	if enc.ctx.SolveAssuming(act) != sat.Sat {
		t.Fatal("bad is unsatisfiable")
	}
	got := enc.lexMinSchedule(act)
	want, trace := linearLexMin(t, p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule %v, reference %v", got, want)
	}
	if enc.idle == len(enc.choices) || !slices.Contains(got, enc.idle) {
		t.Fatalf("schedule %v has no don't-care step on idle choice %d of %d", got, enc.idle, len(enc.choices))
	}
	sameResult(t, "don't-care", r, inv.Result{Outcome: inv.Violated, Trace: trace})
}

// TestAdmitLadderExactlyOne: whatever order choices are admitted in,
// exactly one of a step's admitted selectors and its rest holds: each
// alone is satisfiable, with every other one false; no two hold
// together; and not all are false. admitted stays in alphabet order, and
// idle is the least choice not admitted.
func TestAdmitLadderExactlyOne(t *testing.T) {
	enc, err := NewSliceEncoding(violatedFamilies()[3][0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := enc.ctx
	for n, c := range []int32{5, 0, 31, 2, 1, 5, 3} {
		enc.admit(c)
		for t0 := range enc.K {
			row := []smt.Form{enc.rest[t0]}
			for _, a := range enc.admitted {
				row = append(row, enc.sel[a][t0])
			}
			none := make([]smt.Form, len(row))
			for i, f := range row {
				none[i] = ctx.Not(f)
				if ctx.SolveAssuming(f) != sat.Sat {
					t.Fatalf("after %d admissions, step %d: candidate %d alone is unsatisfiable", n+1, t0, i)
				}
				for j, g := range row {
					if (ctx.EvalForm(g) == sat.True) != (i == j) {
						t.Fatalf("after %d admissions, step %d: with candidate %d, candidate %d is %v", n+1, t0, i, j, ctx.EvalForm(g))
					}
				}
				for j := i + 1; j < len(row); j++ {
					if ctx.SolveAssuming(f, row[j]) != sat.Unsat {
						t.Fatalf("after %d admissions, step %d: candidates %d and %d hold together", n+1, t0, i, j)
					}
				}
			}
			if ctx.SolveAssuming(none...) != sat.Unsat {
				t.Fatalf("after %d admissions, step %d: no candidate holds", n+1, t0)
			}
		}
	}
	if want := []int32{0, 1, 2, 3, 5, 31}; !reflect.DeepEqual(enc.admitted, want) || enc.idle != 4 {
		t.Fatalf("admitted %v idle %d, want %v and 4", enc.admitted, enc.idle, want)
	}
}
