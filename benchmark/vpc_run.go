package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// warmPrefix is how many churn cycles the what-if workload's prepared state
// directory has seen before the daemon is killed: 80 journaled changes, so a
// warm restart restores the snapshot taken at record 64 and replays the 16
// records after it.
const warmPrefix = 4

// vpcRun is the state shared by the two daemon workloads.
type vpcRun struct {
	cfg      runConfig
	res      *runResult
	desc     []byte // the description file's bytes
	topology string
	model    *vpcModel
	lat      series
	byKind   map[string]*series
}

func newVPCRun(cfg runConfig) (*vpcRun, error) {
	b, err := vpcBytes(vpcSize)
	if err != nil {
		return nil, err
	}
	topology := filepath.Join(cfg.dir, "vpc.json")
	if err := os.WriteFile(topology, b, 0o644); err != nil {
		return nil, err
	}
	r := &vpcRun{cfg: cfg, res: newRunResult(), desc: b, topology: topology,
		model: newVPCModel(vpcSize, cfg.seed), byKind: map[string]*series{}}
	r.res.stamp["topology_kb"] = len(b) / 1024
	r.res.stamp["invariants"] = r.model.invs
	return r, nil
}

func (r *vpcRun) record(kind string, d time.Duration) {
	r.lat.add(d)
	s := r.byKind[kind]
	if s == nil {
		s = &series{}
		r.byKind[kind] = s
	}
	s.add(d)
}

// freshDir makes an empty state directory.
func (r *vpcRun) freshDir(name string) (string, error) {
	dir := filepath.Join(r.cfg.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// checkFirst checks the starting verdict set a daemon announced.
func (r *vpcRun) checkFirst(d *daemon) error {
	if n, ok := headerInt(d.first, "invariants"); !ok || n != r.model.invs {
		return fmt.Errorf("first reply reports %d invariants, want %d", n, r.model.invs)
	}
	if got := scanUnsat(d.first); !sameStrings(got, r.model.unsatList()) {
		return fmt.Errorf("first reply: unsatisfied %v, want %v", got, r.model.unsatList())
	}
	return nil
}

// measureSetup spawns daemons until the set-up budget is spent; prepare
// returns the state directory for one repetition. Each spawn is timed from
// exec to the first complete verdict set, checked, and killed.
func (r *vpcRun) measureSetup(prepare func() (string, error)) error {
	return r.res.setup(r.cfg, func() (time.Duration, error) {
		dir, err := prepare()
		if err != nil {
			return 0, err
		}
		d, err := startDaemon(r.cfg.vmnd, r.topology, dir)
		if err != nil {
			return 0, err
		}
		defer d.kill()
		return d.setup, r.checkFirst(d)
	})
}

// runChurn is the vpc-sg-churn workload.
func runChurn(cfg runConfig) (*runResult, error) {
	r, err := newVPCRun(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.measureSetup(func() (string, error) { return r.freshDir("state-setup") }); err != nil {
		return nil, err
	}
	dir, err := r.freshDir("state")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.vmnd, r.topology, dir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if err := r.churn(d, 1, 0, false); err != nil { // one untimed warm-up cycle
		return nil, err
	}
	if err := r.churn(d, 0, cfg.streamBudget(), true); err != nil {
		return nil, err
	}
	return r.finish(d)
}

// more says whether a stream that has sent c whole cycles since start sends
// another: up to cycles of them, or, with cycles 0, until budget has passed.
func more(c, cycles int, start time.Time, budget time.Duration) bool {
	if cycles > 0 {
		return c < cycles
	}
	return time.Since(start) < budget
}

// churn sends churn cycles to d: exactly cycles of them, or, with cycles 0,
// whole cycles until budget has passed. Timed ops are recorded and checked
// into the result; three checkpoints run in a timed stream: in the first
// diverged state, half way, and at the end.
func (r *vpcRun) churn(d *daemon, cycles int, budget time.Duration, timed bool) error {
	start := time.Now()
	diverged, half := !timed, !timed
	for c := 0; more(c, cycles, start, budget); c++ {
		host.tick()
		for _, op := range r.model.churnCycle() {
			line, dt, err := d.roundTrip(op.line)
			if err != nil {
				return fmt.Errorf("op %s: %w", op.id, err)
			}
			err = checkVerdicts(line, op.id, op.unsat, op.invs)
			if timed {
				r.record(op.kind, dt)
				r.res.attempt(err)
			} else if err != nil {
				return err
			}
			if !diverged && !op.fwDown && len(op.unsat) > 0 {
				diverged = true
				r.res.check(checkpoint(d, op.unsat, op.invs))
			}
		}
		if !half && time.Since(start) >= budget/2 {
			half = true
			r.res.check(checkpoint(d, r.model.unsatList(), r.model.invs))
		}
	}
	if timed {
		r.res.check(checkpoint(d, r.model.unsatList(), r.model.invs))
	}
	return nil
}

// finish stops the stream daemon gracefully and fills in the stream metrics.
func (r *vpcRun) finish(d *daemon) (*runResult, error) {
	rss, err := d.stop()
	if err != nil {
		return nil, fmt.Errorf("vmnd exit: %w", err)
	}
	r.res.metrics["peak_rss_mb"] = rss
	r.res.stamp["daemon_cpu_ms_per_op"] = ms(d.cpuTime()) / float64(max(r.lat.n(), 1))
	for kind, s := range r.byKind {
		r.res.stamp["as_measured/p50_ms/"+kind] = medianOf(s, ms)
	}
	return r.res, r.res.stream(&r.lat)
}

// prepareWarm builds the state directory the what-if daemon restarts from:
// a cold start, warmPrefix churn cycles, then a kill, so the directory holds
// a snapshot plus a journal suffix as after a crash.
func (r *vpcRun) prepareWarm() (string, error) {
	dir, err := r.freshDir("state-warm")
	if err != nil {
		return "", err
	}
	d, err := startDaemon(r.cfg.vmnd, r.topology, dir)
	if err != nil {
		return "", err
	}
	defer d.kill()
	return dir, r.churn(d, warmPrefix, 0, false)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runWhatif is the vpc-whatif workload.
func runWhatif(cfg runConfig) (*runResult, error) {
	r, err := newVPCRun(cfg)
	if err != nil {
		return nil, err
	}
	warm, err := r.prepareWarm()
	if err != nil {
		return nil, err
	}
	restart := func(name string) (string, error) {
		dst := filepath.Join(cfg.dir, name)
		return dst, copyDir(warm, dst)
	}
	if err := r.measureSetup(func() (string, error) { return restart("state-setup") }); err != nil {
		return nil, err
	}
	dir, err := restart("state")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.vmnd, r.topology, dir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if err := r.checkFirst(d); err != nil {
		return nil, err
	}
	// The first checkpoint tests the recovery itself: restored verdicts
	// against a from-scratch verification of the restored network.
	r.res.check(checkpoint(d, r.model.unsatList(), r.model.invs))
	if err := r.whatif(d, 1, 0, false); err != nil {
		return nil, err
	}
	if err := r.whatif(d, 0, cfg.streamBudget(), true); err != nil {
		return nil, err
	}
	return r.finish(d)
}

// whatif sends what-if cycles like churn sends churn cycles. One op is one
// transaction: propose written → decision acknowledged.
func (r *vpcRun) whatif(d *daemon, cycles int, budget time.Duration, timed bool) error {
	start := time.Now()
	half := !timed
	for c := 0; more(c, cycles, start, budget); c++ {
		host.tick()
		for _, tx := range r.model.whatifCycle() {
			line, dt1, err := d.roundTrip(tx.propose)
			if err != nil {
				return fmt.Errorf("propose: %w", err)
			}
			perr := checkPropose(line, tx)
			line, dt2, err := d.roundTrip(tx.decide)
			if err != nil {
				return fmt.Errorf("%s: %w", tx.kind, err)
			}
			if perr == nil {
				perr = checkTxnAck(line, tx.commit)
			}
			if timed {
				r.record(tx.kind, dt1+dt2)
				r.res.attempt(perr)
			} else if perr != nil {
				return perr
			}
		}
		if !half && time.Since(start) >= budget/2 {
			half = true
			r.res.check(checkpoint(d, r.model.unsatList(), r.model.invs))
		}
	}
	if timed {
		r.res.check(checkpoint(d, r.model.unsatList(), r.model.invs))
	}
	return nil
}

// checkPropose checks a propose reply's decision and shadow verdicts.
func checkPropose(line []byte, tx vpcTxn) error {
	if len(line) < 4096 && bytes.Contains(line, keyError) {
		return fmt.Errorf("error line: %s", bytes.TrimSpace(line))
	}
	head := line[:min(len(line), 256)]
	if !bytes.Contains(head, []byte(`"decision":"`+tx.decision+`"`)) {
		return fmt.Errorf("propose decided %s, want %s", head, tx.decision)
	}
	if n, ok := headerInt(line, "invariants"); !ok || n != tx.invs {
		return fmt.Errorf("propose reports %d invariants, want %d", n, tx.invs)
	}
	if got := scanUnsat(line); !sameStrings(got, tx.shadow) {
		return fmt.Errorf("propose shadow: unsatisfied %v, want %v", got, tx.shadow)
	}
	return nil
}
