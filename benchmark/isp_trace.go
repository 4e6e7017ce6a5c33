package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
)

// routeSide is one side — untraced or traced — of a route-stream replay: a
// session of its own, fed by a generator of its own with the run's seed.
type routeSide struct {
	sess    *incr.Session
	g       *routeGen
	o       *obs.Obs // nil on the untraced side
	obsT0   time.Time
	tr      *tracer // nil on the untraced side
	lat     series
	stats   applyStats
	reports []core.Report
}

// newRouteSide builds a side; spanBuf > 0 makes it the traced one, with an
// obs handle whose ring holds spanBuf spans between drains. Library users of
// incr pass no obs handle by default; its cost is part of trace.overhead_pct.
func newRouteSide(cfg runConfig, res *runResult, desc []byte, spanBuf int) (*routeSide, error) {
	n, err := buildISP(desc)
	if err != nil {
		return nil, err
	}
	s := &routeSide{}
	if spanBuf > 0 {
		s.obsT0, s.o, s.tr = time.Now(), obs.New(spanBuf), newTracer()
	}
	runtime.GC()
	t0 := time.Now()
	s.sess, _, err = incr.NewSession(n.net, core.Options{}, n.invs, incr.Options{Obs: s.o})
	if err != nil {
		return nil, err
	}
	res.metrics["incr.session_new_ms"] = ms(time.Since(t0))
	s.g = newRouteGen(n, cfg.seed)
	_, err = s.sess.Apply([]incr.Change{s.g.prefill()})
	return s, err
}

// serialChunk applies the next chunk one update at a time. The traced side
// records one op span per update, the call into incr under it and the
// program's own spans under that, and counts its updates into res.
func (s *routeSide) serialChunk(res *runResult) error {
	changes := s.g.chunk(serialChunk)
	runtime.GC()
	for i := range changes {
		var err error
		t0 := time.Now()
		if s.tr == nil {
			s.reports, err = s.sess.Apply(changes[i : i+1])
		} else {
			s.tr.nextOp()
			root := s.tr.begin("op")
			id := s.tr.begin("incr.apply")
			s.reports, err = s.sess.Apply(changes[i : i+1])
			s.tr.end(id)
			s.tr.adopt(id, obsPrefix, s.obsT0, s.o.Trace.Drain())
			s.tr.end(root)
		}
		dt := time.Since(t0)
		if err != nil {
			return fmt.Errorf("update %d: %w", s.lat.n(), err)
		}
		s.lat.add(dt)
		if s.tr != nil {
			s.stats.add(dt, s.sess.LastApply())
			res.attempt(nil)
		}
	}
	if s.tr != nil && s.lat.n()%checkEvery == 0 {
		res.check(scratchCheck(s.sess, s.reports))
	}
	return nil
}

// traceRouteSerial is the traced run of isp-route-serial: layer probes, then
// the two sides fed turn by turn.
func traceRouteSerial(cfg runConfig) (*runResult, error) {
	res := newRunResult()
	desc, err := netdesc.Encode(netdesc.ISPBackbone(ispSize))
	if err != nil {
		return nil, err
	}
	if _, err := probeNetwork(res, desc, core.Options{}); err != nil {
		return nil, err
	}
	untraced, err := newRouteSide(cfg, res, desc, 0)
	if err != nil {
		return nil, err
	}
	// One update's spans are drained before the next: a small ring is enough.
	traced, err := newRouteSide(cfg, res, desc, 64)
	if err != nil {
		return nil, err
	}
	satStart := traced.sess.SolverStats()
	var proc procDelta
	err = alternate(share(cfg, traceReplayShare), &proc,
		func() error { return untraced.serialChunk(res) },
		func() error { return traced.serialChunk(res) })
	if err != nil {
		return nil, err
	}
	res.check(scratchCheck(traced.sess, traced.sess.CurrentReports()))
	proc.report(res, untraced.lat.n())
	if err := summarize(res, traced.tr, cfg.traceOut); err != nil {
		return nil, err
	}
	traced.stats.report(res, traced.lat.n())
	satPerOp(res, satStart, traced.sess.SolverStats(), traced.lat.n())
	res.metrics["trace.overhead_pct"] = overheadPct(&untraced.lat, &traced.lat)
	res.stamp["inproc_p50_ms"] = medianOf(&untraced.lat, ms)
	res.stamp["traced_p50_ms"] = medianOf(&traced.lat, ms)
	return res, nil
}
