package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/store"
)

// A traced run spends this share of its measuring time on the in-process
// replays, untraced and traced turn by turn; a vpc run first spends another
// share on a short daemon stream, the reference the replay is compared with.
const (
	traceDaemonShare = 0.15
	traceReplayShare = 0.60
)

func share(cfg runConfig, s float64) time.Duration {
	return time.Duration(cfg.seconds * s * float64(time.Second))
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// inproc serves request lines in-process, in the order cmd/vmnd's handle
// uses — ParseRequest → Decode* → ApplyID/ApplyBatchID/Propose/CommitID/
// Rollback → Encode* → json encode — on a session configured as vmnd
// configures it: observability on, durable, fsync always.
type inproc struct {
	net   *core.Network
	sess  *incr.Session
	o     *obs.Obs
	obsT0 time.Time
	tr    *tracer // nil: untraced replay
	out   countingWriter
	enc   *json.Encoder
	dir   string // the session's state directory
	// Filled during a traced replay: the session calls' work counters, the
	// propose durations by decision, and the journal's growth.
	stats        applyStats
	proposes     map[string]*series
	journalBytes int64
	journalOps   int
}

// newInproc builds the network from description bytes and opens a session on
// a state directory, timing NewSession.
func newInproc(desc []byte, dir string, tr *tracer) (*inproc, time.Duration, error) {
	d, err := netdesc.Decode(desc, "vpc.json")
	if err != nil {
		return nil, 0, err
	}
	net, invs, err := netdesc.Build(d, "")
	if err != nil {
		return nil, 0, err
	}
	p := &inproc{net: net, tr: tr, dir: dir, proposes: map[string]*series{}}
	p.enc = json.NewEncoder(&p.out)
	p.obsT0 = time.Now()
	p.o = obs.New(4096) // vmnd's -trace-buf default
	runtime.GC()
	t0 := time.Now()
	p.sess, _, err = incr.NewSession(net, core.Options{}, invs, incr.Options{Obs: p.o,
		Persist: &incr.PersistOptions{Dir: dir, Sync: store.SyncAlways}})
	return p, time.Since(t0), err
}

// span records f as a harness span when the replay is traced.
func (p *inproc) span(name string, f func()) {
	if p.tr == nil {
		f()
		return
	}
	p.tr.do(name, f)
}

// sessionSpan is span for a call into the session: the program's own spans of
// the call are drained and hung under the harness span.
func (p *inproc) sessionSpan(name string, f func()) {
	if p.tr == nil {
		f()
		return
	}
	id := p.tr.begin(name)
	f()
	p.tr.end(id)
	if recs := p.o.Trace.Drain(); len(recs) > 0 {
		p.tr.adopt(id, obsPrefix, p.obsT0, recs)
	}
}

// reply is what a handled line answered, before encoding.
type reply struct {
	reports  []core.Report
	decision string
	ack      incr.WireTxAck
}

// journaled adds the journal record a call wrote, if any, to the traced
// replay's sums. before is the journal's size before the call; a snapshot
// compacts the journal, so only growth measures a record.
func (p *inproc) journaled(before int64) {
	if grew := p.sess.PersistStatus().JournalBytes - before; grew > 0 {
		p.journalBytes += grew
		p.journalOps++
	}
}

// apply runs one apply-like session call and accounts for it.
func (p *inproc) apply(call func() error) error {
	var err error
	before := p.sess.PersistStatus().JournalBytes
	t0 := time.Now()
	p.sessionSpan("incr.apply", func() { err = call() })
	dt := time.Since(t0)
	if err != nil || p.tr == nil {
		return err
	}
	p.stats.add(dt, p.sess.LastApply())
	p.journaled(before)
	return nil
}

// handle serves one request line as vmnd's handle does, for the ops the vpc
// streams send.
func (p *inproc) handle(line []byte) (rep reply, err error) {
	var req incr.WireRequest
	var envelope bool
	p.span("incr.parse", func() { req, envelope, err = incr.ParseRequest(line) })
	if err != nil {
		return rep, err
	}
	if !envelope {
		return rep, fmt.Errorf("replay got a non-envelope line")
	}
	id := req.Id
	var resp any
	switch req.Op {
	case "propose":
		var changes []incr.Change
		p.span("incr.decode", func() { changes, err = incr.DecodeProposeSet(p.net, req.Changes) })
		if err != nil {
			return rep, err
		}
		var pr *incr.ProposeResult
		t0 := time.Now()
		p.sessionSpan("incr.propose", func() { pr, err = p.sess.Propose(changes) })
		if err != nil {
			return rep, err
		}
		rep.reports, rep.decision = pr.Reports, pr.Decision.String()
		if p.tr != nil {
			s := p.proposes[rep.decision]
			if s == nil {
				s = &series{}
				p.proposes[rep.decision] = s
			}
			s.add(time.Since(t0))
			p.stats.addWork(pr.Stats)
		}
		p.span("incr.encode_result", func() { resp = incr.EncodeProposeResult(p.net.Topo, id, changes, pr) })
	case "commit":
		var reports []core.Report
		var dup bool
		before := p.sess.PersistStatus().JournalBytes
		p.sessionSpan("incr.commit", func() { reports, dup, err = p.sess.CommitID(id) })
		if err != nil {
			return rep, err
		}
		if p.tr != nil {
			p.journaled(before)
		}
		rep.ack = incr.WireTxAck{Op: "commit", Id: id, Seq: p.sess.LastApply().Seq, Committed: true, Duplicate: dup}
		for _, r := range reports {
			if !r.Satisfied {
				rep.ack.Unsatisfied++
			}
		}
		totals := incr.EncodeTotals(p.sess.TotalStats())
		rep.ack.Totals = &totals
		resp = rep.ack
	case "rollback":
		p.sessionSpan("incr.rollback", func() { err = p.sess.Rollback() })
		if err != nil {
			return rep, err
		}
		rep.ack = incr.WireTxAck{Op: "rollback", Id: id, Seq: p.sess.LastApply().Seq, RolledBack: true}
		resp = rep.ack
	default: // apply_batch, or a plain change: decode and apply
		if id != "" && p.sess.IsApplied(id) {
			return rep, fmt.Errorf("request %s replayed", id)
		}
		if p.sess.ProposePending() {
			return rep, incr.ErrProposePending
		}
		var changes []incr.Change
		batch := req.Op == "apply_batch"
		p.span("incr.decode", func() {
			if batch {
				changes, err = incr.DecodeChanges(p.net, req.Changes)
			} else {
				changes, err = incr.DecodeChangeSet(p.net, line)
			}
		})
		if err != nil {
			return rep, err
		}
		err = p.apply(func() (err error) {
			if batch {
				rep.reports, _, err = p.sess.ApplyBatchID(id, changes)
			} else {
				rep.reports, _, err = p.sess.ApplyID(id, changes)
			}
			return err
		})
		if err != nil {
			return rep, err
		}
		p.span("incr.encode_result", func() {
			res := incr.EncodeResult(p.net.Topo, p.sess.LastApply(), rep.reports)
			res.Id = id
			resp = res
		})
	}
	p.span("wire.marshal", func() { err = p.enc.Encode(resp) })
	return rep, err
}

// checkReports compares in-process reports with the model's expectation.
func checkReports(reports []core.Report, unsat []string, invs int) error {
	var got []string
	for _, r := range reports {
		if !r.Satisfied {
			got = append(got, r.Invariant.Name())
		}
	}
	sort.Strings(got)
	if len(reports) != invs || !sameStrings(got, unsat) {
		return fmt.Errorf("in-process verdicts %v over %d invariants, want %v over %d", got, len(reports), unsat, invs)
	}
	return nil
}

// op runs one stream op — one or two request lines — as one root span.
func (p *inproc) op(lines [][]byte, check func(i int, rep reply) error) (time.Duration, error) {
	root := -1
	if p.tr != nil {
		p.tr.nextOp()
		root = p.tr.begin("op")
	}
	t0 := time.Now()
	var replies []reply
	for _, line := range lines {
		rep, err := p.handle(line)
		if err != nil {
			return 0, err
		}
		replies = append(replies, rep)
	}
	dt := time.Since(t0)
	if root >= 0 {
		p.tr.end(root)
	}
	for i, rep := range replies {
		if err := check(i, rep); err != nil {
			return dt, err
		}
	}
	return dt, nil
}

// replayChurn sends one churn cycle through p, appending each op's latency
// to lat. With res nil a failed op ends the replay; otherwise it is counted.
func replayChurn(p *inproc, m *vpcModel, res *runResult, lat *series) error {
	for _, op := range m.churnCycle() {
		op := op
		dt, err := p.op([][]byte{op.line}, func(_ int, rep reply) error {
			return checkReports(rep.reports, op.unsat, op.invs)
		})
		if err != nil && (dt == 0 || res == nil) {
			return err
		}
		lat.add(dt)
		if res != nil {
			res.attempt(err)
		}
	}
	return nil
}

// replayWhatif is replayChurn for one cycle of what-if transactions.
func replayWhatif(p *inproc, m *vpcModel, res *runResult, lat *series) error {
	for _, tx := range m.whatifCycle() {
		tx := tx
		dt, err := p.op([][]byte{tx.propose, tx.decide}, func(i int, rep reply) error {
			if i == 0 {
				if rep.decision != tx.decision {
					return fmt.Errorf("in-process propose decided %s, want %s", rep.decision, tx.decision)
				}
				return checkReports(rep.reports, tx.shadow, tx.invs)
			}
			if tx.commit != rep.ack.Committed || tx.commit == rep.ack.RolledBack || rep.ack.Unsatisfied != 0 {
				return fmt.Errorf("in-process ack %+v, want commit=%v", rep.ack, tx.commit)
			}
			return nil
		})
		if err != nil && (dt == 0 || res == nil) {
			return err
		}
		lat.add(dt)
		if res != nil {
			res.attempt(err)
		}
	}
	return nil
}

// alternate runs the untraced and the traced side of a replay turn by turn —
// a cycle or chunk each — until budget has passed, so both see the same
// phases of a machine whose speed drifts. The harness process is measured
// around the untraced turns only.
func alternate(budget time.Duration, proc *procDelta, untraced, traced func() error) error {
	for start := time.Now(); time.Since(start) < budget; {
		before := procNow()
		if err := untraced(); err != nil {
			return err
		}
		proc.add(before, procNow())
		if err := traced(); err != nil {
			return err
		}
	}
	return nil
}

// sessionMetrics fills the metrics a traced replay's counters give.
func (p *inproc) sessionMetrics(res *runResult, ops int) {
	p.stats.report(res, ops)
	res.metrics["wire.resp_kb"] = float64(p.out.n) / 1024 / float64(max(ops, 1))
	if p.journalOps > 0 {
		res.metrics["store.journal_kb_per_op"] = float64(p.journalBytes) / 1024 / float64(p.journalOps)
	}
	if acc := p.proposes["accept"]; acc != nil {
		res.metrics["incr.propose_ms"] = meanOf(acc, ms)
		if rej := p.proposes["reject"]; rej != nil {
			res.metrics["incr.repair_ms"] = meanOf(rej, ms) - meanOf(acc, ms)
		}
	}
}

// txnSpanMetrics reports commit and rollback per occurrence, not per op: a
// quarter of the transactions commit.
func txnSpanMetrics(res *runResult, tr *tracer) {
	total := totalTimes(tr.spans)
	_, count := selfTimes(tr.spans)
	if n := count["incr.commit"]; n > 0 {
		res.metrics["incr.commit_ms"] = ms(total["incr.commit"]) / float64(n)
	}
	if n := count["incr.rollback"]; n > 0 {
		res.metrics["incr.rollback_us"] = us(total["incr.rollback"]) / float64(n)
	}
}

// startReplay opens an in-process session for one replay of the stream and
// brings it to the state the timed stream starts from: one warm-up cycle for
// the churn stream; for the what-if stream the warm prefix, after which the
// session is abandoned as a kill would leave it and a new one recovers from a
// copy of its state directory.
func (r *vpcRun) startReplay(name string, whatif bool) (*inproc, *vpcModel, error) {
	m := newVPCModel(vpcSize, r.cfg.seed)
	dir, err := r.freshDir(name)
	if err != nil {
		return nil, nil, err
	}
	p, newDur, err := newInproc(r.desc, dir, nil)
	if err != nil {
		return nil, nil, err
	}
	r.res.metrics["incr.session_new_ms"] = ms(newDur)
	var warmup series
	if !whatif {
		return p, m, replayChurn(p, m, nil, &warmup)
	}
	for c := 0; c < warmPrefix; c++ {
		if err := replayChurn(p, m, nil, &warmup); err != nil {
			return nil, nil, err
		}
	}
	p, err = r.recoverFrom(dir, name+"-recovered")
	return p, m, err
}

// recoverFrom opens a session on a copy of a state directory an earlier
// session still has open — what a restart after a kill finds — and reports
// how long the recovery took.
func (r *vpcRun) recoverFrom(dir, name string) (*inproc, error) {
	warm := filepath.Join(r.cfg.dir, name)
	if err := copyDir(dir, warm); err != nil {
		return nil, err
	}
	p, newDur, err := newInproc(r.desc, warm, nil)
	if err != nil {
		return nil, err
	}
	if !p.sess.Recovery().Recovered {
		return nil, fmt.Errorf("in-process warm restart did not recover: %+v", p.sess.Recovery())
	}
	r.res.metrics["store.recover_ms"] = ms(newDur)
	return p, nil
}

// vpcTrace is the traced run of either vpc workload.
func vpcTrace(cfg runConfig, whatif bool) (*runResult, error) {
	r, err := newVPCRun(cfg)
	if err != nil {
		return nil, err
	}
	res := r.res
	sliceMean, err := probeNetwork(res, r.desc, core.Options{})
	if err != nil {
		return nil, err
	}
	// The paper's claim, asserted: slices do not grow with the network.
	double := vpcSize
	double.Tenants *= 2
	net, invs, err := netdesc.Build(netdesc.CloudVPC(double), "")
	if err != nil {
		return nil, err
	}
	sp, err := probeSlices(net, invs)
	if err != nil {
		return nil, err
	}
	if sp.sizeMean() != sliceMean {
		res.check(fmt.Errorf("mean slice size %g at %d tenants, %g at %d: slices grew with the network",
			sliceMean, vpcSize.Tenants, sp.sizeMean(), double.Tenants))
	}

	// The daemon reference: the head of the stream over the pipes.
	dir, err := r.freshDir("state")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.vmnd, r.topology, dir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if whatif {
		if err = r.churn(d, warmPrefix, 0, false); err == nil {
			err = r.whatif(d, 0, share(cfg, traceDaemonShare), true)
		}
	} else {
		if err = r.churn(d, 1, 0, false); err == nil {
			err = r.churn(d, 0, share(cfg, traceDaemonShare), true)
		}
	}
	if err != nil {
		return nil, err
	}
	if _, err := d.stop(); err != nil {
		return nil, fmt.Errorf("vmnd exit: %w", err)
	}

	// The same stream in-process, on two sessions fed turn by turn: one
	// untraced, one with a span around every call into a layer.
	pu, mu, err := r.startReplay("state-untraced", whatif)
	if err != nil {
		return nil, err
	}
	pt, mt, err := r.startReplay("state-traced", whatif)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	pt.tr = tr
	satStart := pt.sess.SolverStats()
	cycle := replayChurn
	if whatif {
		cycle = replayWhatif
	}
	var untraced, traced series
	var proc procDelta
	runtime.GC()
	err = alternate(share(cfg, traceReplayShare), &proc,
		func() error { return cycle(pu, mu, nil, &untraced) },
		func() error { return cycle(pt, mt, res, &traced) })
	if err != nil {
		return nil, err
	}
	proc.report(res, untraced.n())
	// The process under test is the daemon: its CPU time, not the harness's.
	res.metrics["proc.cpu_ms_per_op"] = ms(d.cpuTime()) / float64(max(r.lat.n(), 1))
	if !whatif {
		if _, err := r.recoverFrom(pu.dir, "state-recovered"); err != nil {
			return nil, err
		}
	}
	if err := summarize(res, tr, cfg.traceOut); err != nil {
		return nil, err
	}
	pt.sessionMetrics(res, traced.n())
	txnSpanMetrics(res, tr)
	satPerOp(res, satStart, pt.sess.SolverStats(), traced.n())
	res.metrics["trace.overhead_pct"] = overheadPct(&untraced, &traced)
	res.metrics["wire.pipe_overhead_ms"] = medianOf(&r.lat, ms) - medianOf(&untraced, ms)
	res.stamp["daemon_p50_ms"] = medianOf(&r.lat, ms)
	res.stamp["inproc_p50_ms"] = medianOf(&untraced, ms)
	res.stamp["traced_p50_ms"] = medianOf(&traced, ms)

	record := 0
	if pt.journalOps > 0 {
		record = int(pt.journalBytes) / pt.journalOps
	}
	return res, probeStore(res, cfg.dir, record, fileSize(filepath.Join(pt.dir, "snapshot.vmn")))
}

func traceChurn(cfg runConfig) (*runResult, error)  { return vpcTrace(cfg, false) }
func traceWhatif(cfg runConfig) (*runResult, error) { return vpcTrace(cfg, true) }
