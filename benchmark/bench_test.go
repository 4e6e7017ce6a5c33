package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/tf"
)

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	mk := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i+1) * time.Millisecond
		}
		return out
	}
	// 100 samples: the 90th is rank 90, exactly 10 lie beyond it.
	if v, ok := percentile(mk(100), 90); v != 90*time.Millisecond || !ok {
		t.Errorf("p90 of 1..100 ms = %v, supported=%v; want 90ms, true", v, ok)
	}
	// 99 samples: rank 90, only 9 beyond.
	if v, ok := percentile(mk(99), 90); v != 90*time.Millisecond || ok {
		t.Errorf("p90 of 1..99 ms = %v, supported=%v; want 90ms, false", v, ok)
	}
	if _, ok := percentile(nil, 90); ok {
		t.Error("a percentile of nothing is not supported")
	}
	if enoughSamples(99) || !enoughSamples(100) {
		t.Error("enoughSamples must turn true at 100 samples")
	}
	if got := median(mk(4)); got != 2500*time.Microsecond {
		t.Errorf("median of 1..4 ms = %v, want 2.5ms", got)
	}
}

// Times are scaled by the reference timings around them, and not at all on a
// gauge that was never ticked.
func TestTimesAtReferenceSpeed(t *testing.T) {
	defer func(saved speedGauge) { host = saved }(host)
	host = speedGauge{}
	var s series
	s.add(10 * time.Millisecond)
	if got := s.atRefSpeed().d[0]; got != 10*time.Millisecond || host.speed() != 1 {
		t.Errorf("without reference timings 10ms reads %v at speed %v", got, host.speed())
	}

	// The host runs at nominal speed for four timings, then at half of it; one
	// timing in the slow stretch was itself interrupted.
	host.ref = []time.Duration{refNominal, refNominal, refNominal, refNominal,
		2 * refNominal, 2 * refNominal, 9 * refNominal, 2 * refNominal, 2 * refNominal}
	s = series{}
	for epoch := range host.ref {
		s.d, s.at = append(s.d, 10*time.Millisecond), append(s.at, int32(epoch))
	}
	got := s.atRefSpeed().d
	for epoch, want := range map[int]time.Duration{
		0: 10 * time.Millisecond, // timings 0..2
		1: 10 * time.Millisecond, // timings 0..3
		5: 5 * time.Millisecond,  // timings 4..7: the interrupted one does not count
		8: 5 * time.Millisecond,  // timings 7..8
	} {
		if got[epoch] != want {
			t.Errorf("10ms measured in epoch %d reads %v at reference speed, want %v", epoch, got[epoch], want)
		}
	}
	if host.speed() != 0.5 {
		t.Errorf("speed over the run %v, want 0.5 (the median timing is twice the nominal)", host.speed())
	}

	host = speedGauge{}
	host.tick()
	host.tick() // too soon after the first: no second timing
	if len(host.ref) != 1 || host.ref[0] <= 0 {
		t.Errorf("two ticks in a row recorded %v", host.ref)
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: at(0), End: at(100), Parent: -1},
		{Name: "apply", Start: at(10), End: at(90), Parent: 0},
		{Name: "dirty", Start: at(10), End: at(30), Parent: 1},
		{Name: "solve", Start: at(30), End: at(80), Parent: 1},
		// Two parallel children covering more than their parent lasts.
		{Name: "worker", Start: at(30), End: at(80), Parent: 3},
		{Name: "worker", Start: at(30), End: at(80), Parent: 3},
	}
	self, count := selfTimes(spans)
	want := map[string]time.Duration{"op": at(20), "apply": at(10), "dirty": at(20), "solve": 0, "worker": at(100)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if count["worker"] != 2 || count["op"] != 1 {
		t.Errorf("counts %v", count)
	}
}

func TestAdoptHangsParentlessSpansByContainment(t *testing.T) {
	tr := newTracer()
	root := tr.begin("incr.apply")
	tr.end(root)
	tr.spans[root].Start, tr.spans[root].End = 0, 100
	// As obs records them: children before parents, encode/solve parentless.
	recs := []obs.SpanRecord{
		{ID: 2, Parent: 1, Name: "dirty", StartNs: 5, DurationNs: 10},
		{ID: 4, Name: "encode", StartNs: 22, DurationNs: 8},
		{ID: 5, Name: "solve", StartNs: 30, DurationNs: 20},
		{ID: 3, Parent: 1, Name: "class", StartNs: 20, DurationNs: 40},
		{ID: 1, Name: "apply", StartNs: 1, DurationNs: 90},
	}
	tr.adopt(root, obsPrefix, tr.t0, recs)
	parent := map[string]string{}
	for _, s := range tr.spans[1:] {
		parent[s.Name] = tr.spans[s.Parent].Name
	}
	want := map[string]string{"obs:dirty": "obs:apply", "obs:class": "obs:apply", "obs:apply": "incr.apply",
		"obs:encode": "obs:class", "obs:solve": "obs:class"}
	if !reflect.DeepEqual(parent, want) {
		t.Errorf("parents %v, want %v", parent, want)
	}
	self, _ := selfTimes(tr.spans)
	if self["obs:class"] != 12 || self["obs:apply"] != 40 || self["incr.apply"] != 10 {
		t.Errorf("self times %v", self)
	}
}

func churnLines(seed int64, cycles int) []string {
	m := newVPCModel(vpcSize, seed)
	var out []string
	for c := 0; c < cycles; c++ {
		for _, op := range m.churnCycle() {
			out = append(out, string(op.line)+strings.Join(op.unsat, ","))
		}
	}
	return out
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	if a, b := churnLines(7, 3), churnLines(7, 3); !reflect.DeepEqual(a, b) {
		t.Error("churn stream differs between two runs of one seed")
	}
	if a, b := churnLines(7, 3), churnLines(8, 3); reflect.DeepEqual(a, b) {
		t.Error("churn stream does not depend on the seed")
	}
	whatif := func(seed int64) []string {
		m := newVPCModel(vpcSize, seed)
		var out []string
		for _, tx := range m.whatifCycle() {
			out = append(out, tx.kind+string(tx.propose)+string(tx.decide))
		}
		return out
	}
	if !reflect.DeepEqual(whatif(3), whatif(3)) || reflect.DeepEqual(whatif(3), whatif(4)) {
		t.Error("what-if stream must be a function of the seed")
	}

	desc, err := netdesc.Encode(netdesc.ISPBackbone(ispSize))
	if err != nil {
		t.Fatal(err)
	}
	n, err := buildISP(desc)
	if err != nil {
		t.Fatal(err)
	}
	routes := func(seed int64) []tf.Rule {
		g := newRouteGen(n, seed)
		g.prefill()
		for i := 0; i < 500; i++ {
			g.step()
		}
		return g.active
	}
	if !reflect.DeepEqual(routes(5), routes(5)) || reflect.DeepEqual(routes(5), routes(6)) {
		t.Error("route stream must be a function of the seed")
	}
	if got := len(routes(5)); got != activeRoutes {
		t.Errorf("overlay holds %d routes after the stream, want %d", got, activeRoutes)
	}
}

// Every churn cycle sends the mix WORKLOADS.md promises and ends converged.
func TestChurnCycleMix(t *testing.T) {
	m := newVPCModel(vpcSize, 1)
	for c := 0; c < 4; c++ {
		kinds := map[string]int{}
		for _, op := range m.churnCycle() {
			kinds[op.kind]++
		}
		want := map[string]int{"dead": 10, "live": 6, "node": 2, "inv": 1, "noop": 1}
		if !reflect.DeepEqual(kinds, want) {
			t.Fatalf("cycle %d mix %v, want %v", c, kinds, want)
		}
		if len(m.unsat) != 0 {
			t.Fatalf("cycle %d ends with %v unsatisfied", c, m.unsatList())
		}
	}
}

func TestScannerReadsVerdicts(t *testing.T) {
	line := []byte(`{"seq":3,"changes":1,"invariants":3,"unsatisfied":1,"reports":[` +
		`{"invariant":"a","outcome":"holds","satisfied":true,"engine":"sat"},` +
		`{"invariant":"b","scenario":["fw"],"outcome":"violated","satisfied":false,"engine":"sat"},` +
		`{"invariant":"c","outcome":"holds","satisfied":true,"engine":"sat"}],"id":"q1"}` + "\n")
	if got := scanUnsat(line); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("scanUnsat = %v, want [b]", got)
	}
	if err := checkVerdicts(line, "q1", []string{"b"}, 3); err != nil {
		t.Errorf("a correct reply was refused: %v", err)
	}
	// The oracle must catch a deliberately wrong expectation, a wrong
	// invariant count, a foreign id and an error line.
	for name, err := range map[string]error{
		"wrong verdict": checkVerdicts(line, "q1", nil, 3),
		"wrong count":   checkVerdicts(line, "q1", []string{"b"}, 4),
		"wrong id":      checkVerdicts(line, "q2", []string{"b"}, 3),
		"error line":    checkVerdicts([]byte(`{"seq":3,"error":"incr: no node named \"x\"","id":"q1"}`), "q1", nil, 3),
	} {
		if err == nil {
			t.Errorf("%s went unnoticed", name)
		}
	}
}

// A tiny VPC replayed in-process: the oracle accepts the stream as generated
// and catches one expected verdict changed behind its back.
func TestInprocReplayAndOracle(t *testing.T) {
	small := netdesc.VPCConfig{Tenants: 40, Shapes: 4, Peerings: 2, CrossChecks: 4}
	desc, err := vpcBytes(small)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	p, _, err := newInproc(desc, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	m := newVPCModel(small, 1)
	ops := m.churnCycle()
	live := -1
	for i, op := range ops {
		rep, err := p.handle(op.line)
		if err != nil {
			t.Fatalf("op %s: %v", op.id, err)
		}
		if err := checkReports(rep.reports, op.unsat, op.invs); err != nil {
			t.Fatalf("op %s (%s): %v", op.id, op.kind, err)
		}
		if len(op.unsat) > 0 && live < 0 {
			live = i
			if err := checkReports(rep.reports, nil, op.invs); err == nil {
				t.Error("oracle accepted an all-satisfied expectation for a diverged state")
			}
		}
	}
	if live < 0 {
		t.Fatal("cycle never diverged")
	}
	if err := p.sess.Shutdown(); err != nil {
		t.Fatal(err)
	}
	self, count := selfTimes(tr.spans)
	if count["incr.apply"] != len(ops) { // the noop decodes to an empty set and still applies
		t.Errorf("%d apply spans for %d ops", count["incr.apply"], len(ops))
	}
	if self["obs:apply"] == 0 || count["wire.marshal"] != len(ops) {
		t.Errorf("trace misses layers: self %v count %v", self, count)
	}
}

func TestFarmOrderKeepsTheMix(t *testing.T) {
	u, err := newFarmUniverse()
	if err != nil {
		t.Fatal(err)
	}
	var expected map[string][]string
	if err := json.Unmarshal(expectedFarmJSON, &expected); err != nil {
		t.Fatal(err)
	}
	for _, c := range u.all() {
		if _, ok := expected[c.key]; !ok {
			t.Errorf("expected/cachefarm.json has no verdicts for %s", c.key)
		}
	}
	o := &farmOrder{rng: rand.New(rand.NewSource(1)), u: u}
	for c := 0; c < 3; c++ {
		leaks := 0
		cyc := o.cycle()
		for _, cand := range cyc {
			if len(expected[cand.key]) > 0 {
				leaks++
			}
		}
		if len(cyc) != 12 || leaks != 2 {
			t.Errorf("cycle %d: %d candidates, %d leaking; want 12 and 2", c, len(cyc), leaks)
		}
	}
}

// BENCHMARK.json is the driver's copy of the tables in this package.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var bj struct {
		Paths     []string
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the harness", i, bj.Workloads[i].Name, w.name)
		}
	}
	better := func(name string) string {
		if higherIsBetter[name] {
			return "higher"
		}
		return "lower"
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the harness %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Bound != bounds[d.Name] || m.Better != better(d.Name) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v bound %g better %s", i, m, d, bounds[d.Name], better(d.Name))
		}
	}
	for i, d := range perLayer {
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Name) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v better %s", i, m, d, better(d.Name))
		}
	}
}
