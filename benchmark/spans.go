package main

import (
	"encoding/json"
	"os"
	"time"

	"github.com/netverify/vmn/internal/obs"
)

// span is one recorded call into a layer: name, start, end, the span that
// caused it, and the op it belongs to. Times are offsets from the tracer's
// start. Spans live in memory and are written out, if asked, at exit.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index into the span list; -1 for a root
	Op     int           `json:"op"`
}

// tracer records spans from the benchmark's own files, around the calls into
// each layer's public functions. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: t.op})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// do records f as a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// nextOp starts a new op: spans recorded from now on carry its number.
func (t *tracer) nextOp() { t.op++ }

// adopt hangs the program's own spans — drained from the obs handle passed
// through Options.Obs — under the harness span that made the call; names get
// the given prefix so they cannot collide with harness spans. Program span
// times are offsets from the obs tracer's start, obsT0.
//
// The program parents its session spans (apply → dirty → …) but starts core's
// encode and solve spans parentless, on worker goroutines. A parentless span
// is hung under the shortest longer span of the batch whose interval contains
// it — the per-class solve it ran in, or a parallel sibling of it, which is
// the same for sums by name — and otherwise under the harness span.
func (t *tracer) adopt(under int, prefix string, obsT0 time.Time, recs []obs.SpanRecord) {
	shift := obsT0.Sub(t.t0)
	first := len(t.spans)
	index := make(map[int64]int, len(recs))
	for _, r := range recs {
		index[r.ID] = len(t.spans)
		start := shift + time.Duration(r.StartNs)
		t.spans = append(t.spans, span{Name: prefix + r.Name, Start: start,
			End: start + time.Duration(r.DurationNs), Parent: under, Op: t.spans[under].Op})
	}
	batch := t.spans[first:]
	for i, r := range recs {
		if p, ok := index[r.Parent]; ok {
			batch[i].Parent = p
			continue
		}
		best := -1
		for j := range batch {
			c, s := &batch[j], &batch[i]
			if j != i && c.Start <= s.Start && c.End >= s.End && c.End-c.Start > s.End-s.Start &&
				(best < 0 || c.End-c.Start < batch[best].End-batch[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			batch[i].Parent = first + best
		}
	}
}

// selfTimes sums, per span name, duration minus the part children cover.
// Children that ran in parallel on worker goroutines can cover more than
// their parent's whole duration; a parent's self time does not go below 0.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		d := s.End - s.Start - covered[i]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
		count[s.Name]++
	}
	return self, count
}

// totalTimes sums, per span name, whole durations.
func totalTimes(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
