package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// The machines this benchmark runs on are a few virtual cores of a shared
// host, and the speed of those cores drifts: recorded runs of identical code
// and seed moved together — every quantile of the op latencies, from p2 to
// p95 — by up to 30 % over a few minutes, whatever the workload. Longer runs,
// trimmed estimators and "fastest block" estimators do not remove a drift
// that outlasts the run. What does is measuring the host while measuring the
// program: a fixed reference kernel, owned by the harness and sharing no code
// with the program under test, is timed between the ops, and every
// end-to-end time is reported as it would have read had the kernel taken
// refNominal throughout — measured time × refNominal ÷ the kernel's time
// around that op. On recorded runs this cut the spread of a 12-run set
// (IQR ÷ median) from 11 % to 3–4 %. The unscaled numbers and the host's
// speed are in the stamp of every run; per-layer metrics are never scaled.

const (
	// refNominal is what one refKernel call takes on the box the workloads
	// were sized on when the host is quiet. It only fixes the scale: reported
	// times are close to wall-clock times on such a box.
	refNominal = 2500 * time.Microsecond
	// refEvery is the least time between two reference timings, so that they
	// cost a workload with short cycles no more than ~3 % of its run.
	refEvery = 100 * time.Millisecond
	// refWindow is how many reference timings on each side of an op its speed
	// is the median of.
	refWindow = 2
)

// refRecord is what the reference kernel encodes and decodes.
type refRecord struct {
	Name  string   `json:"name"`
	ID    int      `json:"id"`
	Tags  []string `json:"tags"`
	Score float64  `json:"score"`
}

// refInput is the kernel's fixed input: 20 000 xorshift values.
var refInput = func() []int {
	v := make([]int, 20000)
	x := uint64(88172645463325252)
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = int(x >> 20)
	}
	return v
}()

var (
	refSorted = make([]int, len(refInput))
	refCounts = make(map[int]int, 4096)
	refSink   int
)

// refKernel is the reference kernel: a sort, map updates, string formatting
// and a JSON round trip over fixed data — the instruction mix of an ordinary
// Go program, which is what slows down with the host. A dependent arithmetic
// chain or a memory walk does not: both were tried and followed the
// workloads' slowdowns only a third of the way.
func refKernel() {
	copy(refSorted, refInput)
	sort.Ints(refSorted)
	clear(refCounts)
	for i, x := range refInput[:8000] {
		refCounts[x&4095] += i
	}
	recs := make([]refRecord, 300)
	for i := range recs {
		recs[i] = refRecord{Name: fmt.Sprintf("inv-%d", refSorted[i]), ID: refCounts[i],
			Tags: []string{"a", "bb", "ccc"}, Score: float64(refSorted[i]) / 3}
	}
	b, err := json.Marshal(recs)
	if err != nil {
		panic(err) // fixed input: a bug
	}
	var back []refRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	refSink += len(back) + len(refCounts) + refSorted[0]
}

// speedGauge is the record of reference timings of one run. Samples added to
// a series carry the number of the timing that preceded them (their epoch).
type speedGauge struct {
	ref  []time.Duration
	last time.Time
}

// host is the run's gauge. A run that never ticks it — a traced run, a test —
// reports its times as measured.
var host speedGauge

// tick times the reference kernel, unless it did so less than refEvery ago.
// Workloads call it between ops, never inside a timed region.
func (g *speedGauge) tick() {
	if !g.last.IsZero() && time.Since(g.last) < refEvery {
		return
	}
	t0 := time.Now()
	refKernel()
	g.last = time.Now()
	g.ref = append(g.ref, g.last.Sub(t0))
}

// epoch numbers the latest reference timing; -1 before the first.
func (g *speedGauge) epoch() int { return len(g.ref) - 1 }

// factor is what a time measured in the given epoch is multiplied by:
// refNominal ÷ the median of the reference timings around it, refWindow
// before the epoch's ops and refWindow after. It is 1 on a gauge never ticked.
func (g *speedGauge) factor(epoch int) float64 {
	return speedOf(g.ref[max(epoch-refWindow+1, 0):min(epoch+refWindow+1, len(g.ref))])
}

// speed is the host's speed over the whole run relative to the nominal one:
// below 1 the host was slower and times were scaled down.
func (g *speedGauge) speed() float64 { return speedOf(g.ref) }

func speedOf(ref []time.Duration) float64 {
	if len(ref) == 0 {
		return 1
	}
	w := append([]time.Duration(nil), ref...)
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	return float64(refNominal) / float64(median(w))
}
