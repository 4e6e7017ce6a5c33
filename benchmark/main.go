// Command vmnperf is the repository's benchmark: four workloads that drive
// the real path — a spawned vmnd over its stdin/stdout pipes, or the public
// functions of internal/incr and internal/core where no wire op exists — and
// report the same end-to-end metrics for each, plus, in a separate traced
// run, the wall clock decomposed per layer. See README.md and WORKLOADS.md.
//
// The driver's contract (BENCHMARK.json):
//
//	run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// prints a human-readable table and, as the last line of standard output,
// one JSON object with correct/attempted/failed/metrics. Without --workload,
// -all runs every workload once (each in a fresh process) and -selfcheck N
// runs them N times and compares the runs against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// minSetupReps is the least number of set-up repetitions behind a median,
// whatever the budget.
const minSetupReps = 3

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	vmnd     string // path of the vmnd binary the daemon workloads spawn
	dir      string // this run's private scratch directory
	traceOut string // where a traced run writes its spans ("" = nowhere)
}

// A run splits its measuring time between the set-up repetitions and the
// stream: a quarter and three quarters.
func (c runConfig) setupBudget() time.Duration {
	return time.Duration(c.seconds * 0.25 * float64(time.Second))
}

func (c runConfig) streamBudget() time.Duration {
	return time.Duration(c.seconds * 0.75 * float64(time.Second))
}

// runResult is what one run reports.
type runResult struct {
	attempted, failed int
	// oracle counts from-scratch checks that disagreed; any makes the run
	// incorrect without being an op.
	oracle  int
	notes   []string // the first few failures, verbatim
	metrics map[string]float64
	stamp   map[string]any
}

func newRunResult() *runResult {
	return &runResult{metrics: map[string]float64{}, stamp: map[string]any{}}
}

func (r *runResult) note(err error) {
	if len(r.notes) < 5 {
		r.notes = append(r.notes, err.Error())
	}
}

// attempt counts one op; a non-nil err counts it as failed.
func (r *runResult) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(err)
	}
}

// check records the outcome of an untimed oracle check.
func (r *runResult) check(err error) {
	if err != nil {
		r.oracle++
		r.note(err)
	}
}

func (r *runResult) correct() bool { return r.failed == 0 && r.oracle == 0 }

// setup measures setup_s: it repeats one timed set-up until the run's set-up
// budget is spent and reports the median repetition, at reference speed.
func (r *runResult) setup(cfg runConfig, once func() (time.Duration, error)) error {
	reps, err := repeatFor(cfg.setupBudget(), func() (time.Duration, error) {
		host.tick()
		return once()
	})
	if err != nil {
		return err
	}
	host.tick()
	r.metrics["setup_s"] = median(reps.atRefSpeed().sorted()).Seconds()
	r.stamp["setup_reps"] = reps.n()
	r.stamp["as_measured/setup_s"] = median(reps.sorted()).Seconds()
	return nil
}

// stream fills in the stream metrics, at reference speed, from the per-op
// latencies.
func (r *runResult) stream(lat *series) error {
	host.tick()
	p50, p90, rate, err := streamMetrics(lat)
	if err != nil {
		return err
	}
	r.stamp["as_measured/op_p50_ms"], r.stamp["as_measured/op_p90_ms"], r.stamp["as_measured/ops_per_s"] = p50, p90, rate
	p50, p90, rate, _ = streamMetrics(lat.atRefSpeed())
	r.metrics["op_p50_ms"], r.metrics["op_p90_ms"], r.metrics["ops_per_s"] = p50, p90, rate
	r.stamp["samples"] = lat.n()
	r.stamp["enough_samples"] = enoughSamples(lat.n())
	r.stamp["host_speed"] = host.speed()
	r.stamp["host_speed_readings"] = len(host.ref)
	return nil
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name  string
	run   func(runConfig) (*runResult, error) // end-to-end metrics, tracing off
	trace func(runConfig) (*runResult, error) // per-layer metrics
}

var workloads = []workload{
	{"vpc-sg-churn", runChurn, traceChurn},
	{"vpc-whatif", runWhatif, traceWhatif},
	{"isp-route-serial", runRouteSerial, traceRouteSerial},
	{"cachefarm-cold", runCachefarm, traceCachefarm},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// resultLine is the driver's result object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see WORKLOADS.md)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 28, "measuring time of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "file a traced run writes its spans to")
	flag.StringVar(&cfg.vmnd, "vmnd", "", "vmnd binary to spawn (run.sh builds and passes it)")
	scratch := flag.String("scratch", "", "directory for run-time files (run.sh passes <checkout>/.bench_build)")
	all := flag.Bool("all", false, "run every workload once, each in a fresh process")
	selfcheck := flag.Int("selfcheck", 0, "run every workload N times and compare the runs against the bounds")
	expectedOut := flag.String("write-expected", "", "recompute the cachefarm verdict table the slow way into this file (for review, not for runs)")
	flag.Parse()
	cfg.trace = *trace != 0

	if *expectedOut != "" {
		b, err := writeExpectedFarm()
		if err == nil {
			err = os.WriteFile(*expectedOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fail("%v", err)
		}
		return
	}

	if *scratch == "" {
		fail("no -scratch directory: run through benchmark/run.sh")
	}
	if cfg.workload == "" {
		n := *selfcheck
		if n == 0 && *all {
			n = 1
		}
		if n == 0 {
			fail("need --workload NAME, -all or -selfcheck N")
		}
		os.Exit(runAll(cfg, *scratch, n))
	}

	w := findWorkload(cfg.workload)
	if w == nil {
		fail("unknown workload %q", cfg.workload)
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fail("%v", err)
	}
	cfg.dir = dir
	run, defs := w.run, endToEnd
	if cfg.trace {
		run, defs = w.trace, perLayer
	}
	printStamp(cfg)
	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fail("%s: %v", cfg.workload, err)
	}
	report(res, defs)
	if !res.correct() {
		os.Exit(1)
	}
}

// printStamp prints the environment every result is read against.
func printStamp(cfg runConfig) {
	fmt.Printf("# vmnperf workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), commit())
}

// commit names the checkout's commit when it is a git work tree; the
// driver's checkout is not, and says so.
func commit() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	head, err := os.ReadFile(filepath.Join(filepath.Dir(filepath.Dir(exe)), ".git", "HEAD"))
	if err != nil {
		return "not-a-git-checkout"
	}
	ref := string(head)
	if len(ref) > 5 && ref[:5] == "ref: " {
		b, err := os.ReadFile(filepath.Join(filepath.Dir(filepath.Dir(exe)), ".git", ref[5:len(ref)-1]))
		if err != nil {
			return ref[5 : len(ref)-1]
		}
		ref = string(b)
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// report prints the table and, last, the driver's result line.
func report(res *runResult, defs []metricDef) {
	keys := make([]string, 0, len(res.stamp))
	for k := range res.stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s = %v\n", k, res.stamp[k])
	}
	for _, n := range res.notes {
		fmt.Printf("# FAILED: %s\n", n)
	}
	out := resultLine{Correct: res.correct(), Attempted: max(res.attempted, 1), Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := res.metrics[d.Name]
		fmt.Printf("%-28s %14.4f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	fmt.Printf("%-28s %14.6f ratio (%d of %d ops, %d oracle checks disagreed)\n", "failed_share",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted, res.oracle)
	b, err := json.Marshal(out)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(b))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vmnperf: "+format+"\n", args...)
	os.Exit(2)
}
