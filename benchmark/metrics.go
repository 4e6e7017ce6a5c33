package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Minimum sample counts behind a reported number (README, "Rules that make
// it repeat"). A run that cannot reach them still reports, and says so in
// its stamp; the committed run length reaches them on every workload.
const (
	minMedianSamples = 30
	minBeyond        = 10 // samples required beyond a reported percentile
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the end-to-end metrics, identical on every workload.
// failed_share of the issue is the attempted/failed pair of the result line:
// the driver's contract wants metrics that are never 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// bounds is, per end-to-end metric, the share of the parent's median by which
// a later change may worsen it before it counts as a regression.
var bounds = map[string]float64{
	"setup_s": 0.25, "op_p50_ms": 0.25, "op_p90_ms": 0.25, "ops_per_s": 0.25, "peak_rss_mb": 0.25,
}

// higherIsBetter names the metrics, end-to-end and per-layer, for which more
// is better; every other one counts time, memory, work or waste.
var higherIsBetter = map[string]bool{
	"ops_per_s":         true,
	"core.canon_shared": true, "core.journey_hit_ratio": true,
	"incr.cache_hit_ratio": true, "incr.canon_hit_ratio": true, "incr.refined_clean_per_op": true,
}

// series collects latency samples of one kind of operation, each with the
// epoch of the host-speed gauge it was measured in (hostspeed.go).
type series struct {
	d  []time.Duration
	at []int32
}

func (s *series) add(d time.Duration) {
	s.d = append(s.d, d)
	s.at = append(s.at, int32(host.epoch()))
}

func (s *series) n() int { return len(s.d) }

// atRefSpeed returns the samples as they would have read on a host that ran
// the reference kernel in refNominal throughout.
func (s *series) atRefSpeed() *series {
	out := &series{d: make([]time.Duration, len(s.d)), at: s.at}
	epoch, f := int32(-2), 1.0
	for i, d := range s.d {
		if s.at[i] != epoch {
			epoch, f = s.at[i], host.factor(int(s.at[i]))
		}
		out.d[i] = time.Duration(float64(d) * f)
	}
	return out
}

func (s *series) sum() time.Duration {
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// sorted returns the samples in ascending order without disturbing arrival
// order, which the trace needs.
func (s *series) sorted() []time.Duration {
	out := append([]time.Duration(nil), s.d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the p-th percentile (nearest rank) of sorted samples,
// and whether at least minBeyond samples lie beyond it — the condition under
// which the benchmark reports a tail percentile at all.
func percentile(sorted []time.Duration, p float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median of sorted samples (mean of the two middle ones for even counts).
func median(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// meanOf is the arithmetic mean of a series in the given unit (0 when empty).
func meanOf(s *series, unit func(time.Duration) float64) float64 {
	if s.n() == 0 {
		return 0
	}
	return unit(s.sum()) / float64(s.n())
}

// medianOf is the median of a series in the given unit (0 when empty).
func medianOf(s *series, unit func(time.Duration) float64) float64 {
	return unit(median(s.sorted()))
}

// streamMetrics derives the three stream metrics from per-op latencies. With
// one client in a closed loop the stream's wall clock is the summed latencies
// — the time the client spent waiting; the harness's own checking between ops
// is not the program's time.
func streamMetrics(lat *series) (p50, p90, opsPerS float64, err error) {
	sorted := lat.sorted()
	if len(sorted) == 0 {
		return 0, 0, 0, fmt.Errorf("no operation completed")
	}
	t90, _ := percentile(sorted, 90)
	return ms(median(sorted)), ms(t90), float64(len(sorted)) / lat.sum().Seconds(), nil
}

// enoughSamples reports whether n samples support a median and a p90.
func enoughSamples(n int) bool {
	return n >= minMedianSamples && n-int(math.Ceil(0.9*float64(n))) >= minBeyond
}
