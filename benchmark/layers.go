package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/store"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// perLayer lists the per-layer metrics of the traced run; a layer is a
// module of the repository. Every traced run prints all of them: a metric of
// a layer the workload does not reach reads 0. README.md says how each is
// measured and which end-to-end metric it should move.
var perLayer = []metricDef{
	{"netdesc.decode_ms", "ms"}, {"netdesc.build_ms", "ms"}, {"netdesc.file_kb", "KB"},
	{"incr.session_new_ms", "ms"}, {"store.recover_ms", "ms"},
	{"incr.parse_us", "us"}, {"incr.decode_us", "us"},
	{"incr.apply_ms", "ms"}, {"incr.apply_clean_ms", "ms"}, {"incr.apply_self_ms", "ms"},
	{"incr.dirty_ms", "ms"}, {"incr.prescreen_ms", "ms"}, {"incr.canonicalize_ms", "ms"},
	{"incr.solve_ms", "ms"}, {"incr.install_ms", "ms"}, {"core.encode_ms", "ms"}, {"core.solve_ms", "ms"},
	{"incr.propose_ms", "ms"}, {"incr.commit_ms", "ms"}, {"incr.rollback_us", "us"}, {"incr.repair_ms", "ms"},
	{"incr.encode_result_ms", "ms"}, {"wire.marshal_ms", "ms"}, {"wire.resp_kb", "KB"}, {"wire.pipe_overhead_ms", "ms"},
	{"store.append_us", "us"}, {"store.append_nosync_us", "us"}, {"store.snapshot_ms", "ms"},
	{"store.journal_kb_per_op", "KB"}, {"incr.persist_overhead_ms", "ms"},
	{"tf.new_ms", "ms"}, {"tf.next_ns", "ns"},
	{"slices.compute_us", "us"}, {"slices.size_mean", "count"},
	{"core.verifier_new_ms", "ms"}, {"core.verify_all_ms", "ms"}, {"core.verify_self_ms", "ms"}, {"core.canon_classes", "count"},
	{"core.canon_shared", "count"}, {"core.enc_builds", "count"}, {"core.journey_hit_ratio", "ratio"},
	{"sat.conflicts_per_op", "count"}, {"sat.propagations_per_op", "count"}, {"sat.decisions_per_op", "count"},
	{"incr.dirty_groups_per_op", "count"}, {"incr.solves_per_op", "count"}, {"incr.cache_hit_ratio", "ratio"},
	{"incr.canon_hit_ratio", "ratio"}, {"incr.refined_clean_per_op", "count"},
	{"proc.cpu_ms_per_op", "ms"}, {"proc.alloc_kb_per_op", "KB"}, {"proc.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.unaccounted_pct", "%"},
}

// Program span names (internal/obs) as the tracer stores them.
const obsPrefix = "obs:"

// spanMetrics maps span names to the per-layer metric that reports their
// self time per op.
var spanMetrics = map[string]string{
	"incr.parse":                 "incr.parse_us",
	"incr.decode":                "incr.decode_us",
	"incr.apply":                 "incr.persist_overhead_ms", // ApplyID minus the program's own apply span
	obsPrefix + "apply":          "incr.apply_self_ms",
	obsPrefix + "dirty":          "incr.dirty_ms",
	obsPrefix + "atom-prescreen": "incr.prescreen_ms",
	obsPrefix + "canonicalize":   "incr.canonicalize_ms",
	obsPrefix + "class":          "incr.solve_ms",
	obsPrefix + "cache-install":  "incr.install_ms",
	obsPrefix + "encode":         "core.encode_ms",
	obsPrefix + "solve":          "core.solve_ms",
	"incr.encode_result":         "incr.encode_result_ms",
	"wire.marshal":               "wire.marshal_ms",
	"core.verify_all":            "core.verify_self_ms", // VerifyAll minus the program's encode and solve spans
}

// summarize turns a traced stream's spans into per-layer metrics: each
// mapped span name's self time per op, and the share of the ops' wall clock
// no named span accounts for. Every op is one root span named "op".
func summarize(res *runResult, tr *tracer, traceOut string) error {
	self, count := selfTimes(tr.spans)
	ops := count["op"]
	if ops == 0 {
		return fmt.Errorf("traced stream recorded no op")
	}
	for name, metric := range spanMetrics {
		per := self[name] / time.Duration(ops)
		if strings.HasSuffix(metric, "_us") {
			res.metrics[metric] += us(per)
		} else {
			res.metrics[metric] += ms(per)
		}
	}
	wall := totalTimes(tr.spans)["op"]
	res.metrics["trace.unaccounted_pct"] = 100 * float64(self["op"]) / float64(wall)
	res.stamp["traced_ops"] = ops
	res.stamp["spans"] = len(tr.spans)
	if traceOut != "" {
		return tr.write(traceOut)
	}
	return nil
}

// overheadPct is the tracing overhead: how much slower the median op of the
// traced replay is than that of the same replay untraced.
func overheadPct(untraced, traced *series) float64 {
	u := median(untraced.sorted())
	if u == 0 {
		return 0
	}
	return 100 * float64(median(traced.sorted())-u) / float64(u)
}

// procDelta is a reading of the harness process's counters, or a sum of
// differences between readings.
type procDelta struct {
	cpu   time.Duration
	alloc uint64
	pause uint64
}

func procNow() procDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procDelta{selfCPU(), m.TotalAlloc, m.PauseTotalNs}
}

// add accumulates the change between two readings.
func (d *procDelta) add(before, after procDelta) {
	d.cpu += after.cpu - before.cpu
	d.alloc += after.alloc - before.alloc
	d.pause += after.pause - before.pause
}

// report fills the proc.* metrics from accumulated changes over ops ops.
func (d procDelta) report(res *runResult, ops int) {
	n := float64(max(ops, 1))
	res.metrics["proc.cpu_ms_per_op"] = ms(d.cpu) / n
	res.metrics["proc.alloc_kb_per_op"] = float64(d.alloc) / 1024 / n
	res.metrics["proc.gc_pause_ms"] = float64(d.pause) / 1e6
}

// applyStats accumulates, over a traced replay, the duration of the apply
// calls and the work counters of every verification pass.
type applyStats struct {
	applies, clean series
	sum            incr.ApplyStats
}

// addWork adds one pass's work counters: an apply's, or a propose's shadow run.
func (a *applyStats) addWork(st incr.ApplyStats) {
	a.sum.DirtyGroups += st.DirtyGroups
	a.sum.CacheMisses += st.CacheMisses
	a.sum.CacheHits += st.CacheHits
	a.sum.CanonHits += st.CanonHits
	a.sum.RefinedClean += st.RefinedClean
}

// add adds one apply call: its duration and its work.
func (a *applyStats) add(dt time.Duration, st incr.ApplyStats) {
	a.applies.add(dt)
	if st.DirtyGroups == 0 {
		a.clean.add(dt)
	}
	a.addWork(st)
}

func (a *applyStats) report(res *runResult, ops int) {
	n := float64(max(ops, 1))
	res.metrics["incr.apply_ms"] = meanOf(&a.applies, ms)
	res.metrics["incr.apply_clean_ms"] = meanOf(&a.clean, ms)
	res.metrics["incr.dirty_groups_per_op"] = float64(a.sum.DirtyGroups) / n
	res.metrics["incr.solves_per_op"] = float64(a.sum.CacheMisses) / n
	res.metrics["incr.refined_clean_per_op"] = float64(a.sum.RefinedClean) / n
	if checks := a.sum.CacheHits + a.sum.CacheMisses; checks > 0 {
		res.metrics["incr.cache_hit_ratio"] = float64(a.sum.CacheHits) / float64(checks)
	}
	if a.sum.CacheHits > 0 {
		res.metrics["incr.canon_hit_ratio"] = float64(a.sum.CanonHits) / float64(a.sum.CacheHits)
	}
}

// satPerOp reports solver work per op from two readings of solver counters.
func satPerOp(res *runResult, before, after sat.Stats, ops int) {
	n := float64(max(ops, 1))
	res.metrics["sat.conflicts_per_op"] = float64(after.Conflicts-before.Conflicts) / n
	res.metrics["sat.propagations_per_op"] = float64(after.Propagations-before.Propagations) / n
	res.metrics["sat.decisions_per_op"] = float64(after.Decisions-before.Decisions) / n
}

// repeatFor calls f, which reports how long the part of it that counts took,
// until budget has passed and at least minSetupReps times.
func repeatFor(budget time.Duration, f func() (time.Duration, error)) (*series, error) {
	s := &series{}
	for start := time.Now(); s.n() < minSetupReps || time.Since(start) < budget; {
		dt, err := f()
		if err != nil {
			return nil, err
		}
		s.add(dt)
	}
	return s, nil
}

// probe is the median duration of f over probeBudget.
func probe(f func() error) (time.Duration, error) {
	s, err := repeatFor(probeBudget, func() (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	})
	if err != nil {
		return 0, err
	}
	return median(s.sorted()), nil
}

// probeBudget is how long each layer probe may repeat its call.
const probeBudget = 300 * time.Millisecond

// probeNetwork times, on a workload's own description bytes, the calls into
// the layers every workload stands on: netdesc (Decode, Build), tf (New, Next
// over the slices' addresses), slices (Compute per invariant) and core
// (NewVerifier, a cold VerifyAll with symmetry, and the sharing it found).
// It returns the mean slice size, which the vpc trace compares across sizes.
func probeNetwork(res *runResult, desc []byte, opts core.Options) (float64, error) {
	var d *netdesc.Desc
	dt, err := probe(func() (err error) {
		d, err = netdesc.Decode(desc, "probe.json")
		return err
	})
	if err != nil {
		return 0, err
	}
	res.metrics["netdesc.decode_ms"] = ms(dt)
	res.metrics["netdesc.file_kb"] = float64(len(desc)) / 1024

	var net *core.Network
	var invs []inv.Invariant
	dt, err = probe(func() (err error) {
		net, invs, err = netdesc.Build(d, "")
		return err
	})
	if err != nil {
		return 0, err
	}
	res.metrics["netdesc.build_ms"] = ms(dt)

	fib := net.FIBFor(topo.NoFailures())
	dt, _ = probe(func() error {
		tf.New(net.Topo, fib, topo.NoFailures())
		return nil
	})
	res.metrics["tf.new_ms"] = ms(dt)

	sp, err := probeSlices(net, invs)
	if err != nil {
		return 0, err
	}
	res.metrics["slices.compute_us"] = us(sp.computeTime) / float64(sp.computes)
	res.metrics["slices.size_mean"] = sp.sizeMean()
	if sp.nexts > 0 {
		res.metrics["tf.next_ns"] = float64(sp.nextTime.Nanoseconds()) / float64(sp.nexts)
	}

	var v *core.Verifier
	dt, err = probe(func() (err error) {
		v, err = core.NewVerifier(net, opts)
		return err
	})
	if err != nil {
		return 0, err
	}
	res.metrics["core.verifier_new_ms"] = ms(dt)
	runtime.GC()
	t0 := time.Now()
	if _, err := v.VerifyAll(invs, true); err != nil {
		return 0, err
	}
	res.metrics["core.verify_all_ms"] = ms(time.Since(t0))
	classes, shared, _ := v.CanonStats()
	res.metrics["core.canon_classes"], res.metrics["core.canon_shared"] = float64(classes), float64(shared)
	_, builds := v.EncodingCacheStats()
	res.metrics["core.enc_builds"] = float64(builds)
	if hits, misses := v.JourneyCacheStats(); hits+misses > 0 {
		res.metrics["core.journey_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return sp.sizeMean(), nil
}

// sliceProbe is what probeSlices measured.
type sliceProbe struct {
	computes, sizes, nexts int
	computeTime, nextTime  time.Duration
}

func (p sliceProbe) sizeMean() float64 { return float64(p.sizes) / float64(max(p.computes, 1)) }

// probeSlices computes the slices of up to 256 evenly spaced invariants and
// asks a cold transfer-function engine every query between the hosts of each.
func probeSlices(net *core.Network, invs []inv.Invariant) (sliceProbe, error) {
	var p sliceProbe
	fib := net.FIBFor(topo.NoFailures())
	eng, cold := tf.New(net.Topo, fib, topo.NoFailures()), tf.New(net.Topo, fib, topo.NoFailures())
	for i, step := 0, max(len(invs)/256, 1); i < len(invs); i += step {
		keep := append([]topo.NodeID(nil), invs[i].Nodes()...)
		for _, a := range invs[i].RefAddrs() {
			if n, ok := net.Topo.HostByAddr(a); ok {
				keep = append(keep, n.ID)
			}
		}
		t0 := time.Now()
		sl, err := slices.Compute(slices.Input{Topo: net.Topo, TF: eng, Boxes: net.Boxes, PolicyClass: net.PolicyClass, Keep: keep})
		p.computeTime += time.Since(t0)
		if err != nil {
			return p, err
		}
		p.computes++
		p.sizes += sl.Size()
		t0 = time.Now()
		for _, from := range sl.Hosts {
			for _, to := range sl.Hosts {
				if from != to {
					cold.Next(from, net.Topo.Node(to).Addr)
					p.nexts++
				}
			}
		}
		p.nextTime += time.Since(t0)
	}
	return p, nil
}

// probeStore times the store layer on payloads of the sizes the traced
// stream recorded: a journal append under both sync policies and a snapshot
// write.
func probeStore(res *runResult, dir string, recordBytes, snapshotBytes int) error {
	if recordBytes <= 0 {
		return nil
	}
	payload := make([]byte, recordBytes)
	for policy, metric := range map[store.SyncPolicy]string{
		store.SyncAlways: "store.append_us", store.SyncNone: "store.append_nosync_us"} {
		j, _, err := store.OpenJournal(filepath.Join(dir, "probe-"+policy.String()+".wal"), policy)
		if err != nil {
			return err
		}
		dt, err := probe(func() error { return j.Append(payload) })
		j.Close()
		if err != nil {
			return err
		}
		res.metrics[metric] = us(dt)
	}
	if snapshotBytes > 0 {
		snap := make([]byte, snapshotBytes)
		path := filepath.Join(dir, "probe.snapshot")
		dt, err := probe(func() error { return store.WriteSnapshot(path, snap) })
		if err != nil {
			return err
		}
		res.metrics["store.snapshot_ms"] = ms(dt)
	}
	return nil
}

// fileSize is a file's size, 0 when it cannot be read.
func fileSize(path string) int {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return int(st.Size())
}
