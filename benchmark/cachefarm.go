package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/topo"
)

// The candidate universe of cachefarm-cold: the 2-group cache datacenter
// intact; with rack r's cache ACL entries for group t's private content
// deleted — a leak when r == t, harmless otherwise; or with one or two random
// inter-group deny rules deleted from both firewalls (40 seeds). Every run
// verifies the same universe; the seed only orders it.
//
// Two groups, not the issue's four: on this box a 4-group candidate costs
// 260 ms when it holds and 2.9 s when it leaks, so a run would see ~30 ops;
// at two groups it sees ~300, enough for a p90 with a cluster behind it.
const (
	farmGroups     = 2
	farmDenySeeds  = 40
	farmSetupBatch = 120 // candidates constructed by one set-up repetition
)

// expectedFarm is the committed, reviewed verdict table: candidate key → the
// sorted "invariant @ scenario" pairs that must be unsatisfied. It was made
// once by writeExpectedFarm, with slicing's sharing switched off, and is never
// regenerated by a measuring run.
//
//go:embed expected/cachefarm.json
var expectedFarmJSON []byte

// farmCandidate is one configuration's description bytes.
type farmCandidate struct {
	key  string
	desc []byte
}

// farmUniverse builds and exports every candidate configuration, by kind.
type farmUniverse struct {
	intact               farmCandidate
	leak, harmless, deny []farmCandidate
}

func newFarmUniverse() (*farmUniverse, error) {
	export := func(key string, mutate func(*bench.Datacenter)) (farmCandidate, error) {
		d := bench.NewDatacenter(bench.DCConfig{Groups: farmGroups, HostsPerGroup: 1, WithCaches: true})
		mutate(d)
		var invs []inv.Invariant
		for g := 0; g < farmGroups; g++ {
			invs = append(invs, d.DataIsolationInvariant(g))
		}
		desc, err := netdesc.FromNetwork("cachefarm-"+key, d.Net, invs)
		if err != nil {
			return farmCandidate{}, err
		}
		b, err := netdesc.Encode(desc)
		return farmCandidate{key, b}, err
	}
	u := &farmUniverse{}
	var err error
	if u.intact, err = export("intact", func(*bench.Datacenter) {}); err != nil {
		return nil, err
	}
	for r := 0; r < farmGroups; r++ {
		for t := 0; t < farmGroups; t++ {
			r, t := r, t
			c, err := export(fmt.Sprintf("cacheacl/r%d/t%d", r, t), func(d *bench.Datacenter) { d.DeleteCacheACLs(r, t) })
			if err != nil {
				return nil, err
			}
			if r == t {
				u.leak = append(u.leak, c)
			} else {
				u.harmless = append(u.harmless, c)
			}
		}
	}
	for m := 0; m < farmDenySeeds; m++ {
		m := m
		c, err := export(fmt.Sprintf("deny/%d", m), func(d *bench.Datacenter) {
			d.DeleteRandomDenyRules(rand.New(rand.NewSource(int64(m))), 1+m%2)
		})
		if err != nil {
			return nil, err
		}
		u.deny = append(u.deny, c)
	}
	return u, nil
}

func (u *farmUniverse) all() []farmCandidate {
	out := []farmCandidate{u.intact}
	out = append(out, u.leak...)
	out = append(out, u.harmless...)
	return append(out, u.deny...)
}

// farmOrder yields the stream's candidates in cycles of 12: 4 intact, 2
// leaking and 2 harmless cache-ACL deletions, 4 deny-rule deletions. Each
// kind walks its own seeded permutation of the universe, so a run of any
// length keeps the mix exact: a sixth of the ops find a violation, which puts
// op_p90_ms inside the cluster of violation-finding ops and op_p50_ms inside
// the cluster of ops that hold.
type farmOrder struct {
	rng                  *rand.Rand
	u                    *farmUniverse
	leak, harmless, deny []int // the rest of each kind's current permutation
}

func (o *farmOrder) draw(rest *[]int, from []farmCandidate) farmCandidate {
	if len(*rest) == 0 {
		*rest = o.rng.Perm(len(from))
	}
	i := (*rest)[0]
	*rest = (*rest)[1:]
	return from[i]
}

func (o *farmOrder) cycle() []farmCandidate {
	var out []farmCandidate
	for i := 0; i < 4; i++ {
		out = append(out, o.u.intact, o.draw(&o.deny, o.u.deny))
	}
	for i := 0; i < 2; i++ {
		out = append(out, o.draw(&o.leak, o.u.leak), o.draw(&o.harmless, o.u.harmless))
	}
	o.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// spanFunc runs f, recording it as a span of the given name in a traced run.
type spanFunc func(name string, f func())

func untracedSpan(_ string, f func()) { f() }

// farmVerifier is the cold per-candidate state: description bytes → Decode →
// Build → a fresh verifier on the SAT engine, under no failure and the single
// failures of fw1 and ids1.
func farmVerifier(c farmCandidate, opts core.Options, span spanFunc) (v *core.Verifier, invs []inv.Invariant, err error) {
	var d *netdesc.Desc
	span("netdesc.decode", func() { d, err = netdesc.Decode(c.desc, c.key) })
	if err != nil {
		return nil, nil, err
	}
	var net *core.Network
	span("netdesc.build", func() { net, invs, err = netdesc.Build(d, "") })
	if err != nil {
		return nil, nil, err
	}
	opts.Engine = core.EngineSAT
	opts.Scenarios = []topo.FailureScenario{topo.NoFailures()}
	for _, name := range []string{"fw1", "ids1"} {
		n, ok := net.Topo.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("%s: no node %s", c.key, name)
		}
		opts.Scenarios = append(opts.Scenarios, topo.Failures(n.ID))
	}
	span("core.verifier_new", func() { v, err = core.NewVerifier(net, opts) })
	return v, invs, err
}

// farmUnsat renders a report set as the expected table does.
func farmUnsat(t *topo.Topology, reports []core.Report) []string {
	out := []string{}
	for _, r := range reports {
		if r.Satisfied {
			continue
		}
		sc := "none"
		for _, n := range r.Scenario.Nodes() {
			sc = t.Node(n).Name
		}
		out = append(out, r.Invariant.Name()+" @ "+sc)
	}
	sort.Strings(out)
	return out
}

// runCachefarm is the cachefarm-cold workload: one op is one candidate's
// VerifyAll on a verifier nothing has warmed.
func runCachefarm(cfg runConfig) (*runResult, error) {
	res := newRunResult()
	universe, err := newFarmUniverse()
	if err != nil {
		return nil, err
	}
	var expected map[string][]string
	if err := json.Unmarshal(expectedFarmJSON, &expected); err != nil {
		return nil, fmt.Errorf("expected/cachefarm.json: %w", err)
	}
	order := &farmOrder{rng: rand.New(rand.NewSource(cfg.seed)), u: universe}

	// Set-up: construct the stream's first farmSetupBatch candidates, over
	// and over.
	var batch []farmCandidate
	for len(batch) < farmSetupBatch {
		batch = append(batch, order.cycle()...)
	}
	err = res.setup(cfg, func() (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		for _, c := range batch {
			if _, _, err := farmVerifier(c, core.Options{}, untracedSpan); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	res.stamp["candidates"] = len(universe.all())

	var lat series
	for start := time.Now(); time.Since(start) < cfg.streamBudget(); {
		for _, c := range order.cycle() {
			v, invs, err := farmVerifier(c, core.Options{}, untracedSpan)
			if err != nil {
				return nil, err
			}
			// Every op starts from a collected heap: a candidate allocates
			// ~25 MB, and whether a collection happens to fall before or
			// after the next one's burst otherwise decides peak_rss_mb.
			host.tick()
			runtime.GC()
			t0 := time.Now()
			reports, err := v.VerifyAll(invs, true)
			lat.add(time.Since(t0))
			if err == nil {
				want, ok := expected[c.key]
				if got := farmUnsat(v.Network().Topo, reports); !ok || !sameStrings(got, want) {
					err = fmt.Errorf("%s: unsatisfied %v, committed table says %v", c.key, got, want)
				}
			}
			res.attempt(err)
		}
	}
	res.metrics["peak_rss_mb"] = selfPeakRSSMB()
	return res, res.stream(&lat)
}

// writeExpectedFarm computes the verdict table for expected/cachefarm.json
// the slow way — no symmetry, no canonical sharing, no solver reuse — so the
// committed table does not come from the path the workload measures.
func writeExpectedFarm() ([]byte, error) {
	universe, err := newFarmUniverse()
	if err != nil {
		return nil, err
	}
	table := map[string][]string{}
	for _, c := range universe.all() {
		v, invs, err := farmVerifier(c, core.Options{NoCanon: true, NoSolverReuse: true}, untracedSpan)
		if err != nil {
			return nil, err
		}
		reports, err := v.VerifyAll(invs, false)
		if err != nil {
			return nil, err
		}
		table[c.key] = farmUnsat(v.Network().Topo, reports)
	}
	return json.MarshalIndent(table, "", " ")
}

// traceCachefarm is the traced run of cachefarm-cold: the stream replayed
// untraced, then replayed with a span around each call that makes a
// candidate's cold state and verifies it, the program's encode and solve
// spans hung under VerifyAll. Layer probes run on the intact candidate.
func traceCachefarm(cfg runConfig) (*runResult, error) {
	res := newRunResult()
	universe, err := newFarmUniverse()
	if err != nil {
		return nil, err
	}
	var expected map[string][]string
	if err := json.Unmarshal(expectedFarmJSON, &expected); err != nil {
		return nil, fmt.Errorf("expected/cachefarm.json: %w", err)
	}
	if _, err := probeNetwork(res, universe.intact.desc, core.Options{Engine: core.EngineSAT}); err != nil {
		return nil, err
	}

	// Two walks of the same seeded order, fed a cycle at a time turn by turn.
	plain := &farmOrder{rng: rand.New(rand.NewSource(cfg.seed)), u: universe}
	spanned := &farmOrder{rng: rand.New(rand.NewSource(cfg.seed)), u: universe}
	tr := newTracer()
	var untraced, traced series
	var solver sat.Stats
	var proc procDelta
	runtime.GC()
	err = alternate(share(cfg, traceReplayShare), &proc, func() error {
		for _, c := range plain.cycle() {
			v, invs, err := farmVerifier(c, core.Options{}, untracedSpan)
			if err != nil {
				return err
			}
			runtime.GC()
			t0 := time.Now()
			if _, err := v.VerifyAll(invs, true); err != nil {
				return err
			}
			untraced.add(time.Since(t0))
		}
		return nil
	}, func() error {
		for _, c := range spanned.cycle() {
			// A fresh obs handle per candidate, as its verifier is fresh.
			o, obsT0 := obs.New(1024), time.Now()
			span := func(name string, f func()) {
				id := tr.begin(name)
				f()
				tr.end(id)
				tr.adopt(id, obsPrefix, obsT0, o.Trace.Drain())
			}
			tr.nextOp()
			root := tr.begin("op")
			v, invs, err := farmVerifier(c, core.Options{Obs: o}, span)
			if err != nil {
				return err
			}
			var reports []core.Report
			runtime.GC()
			t0 := time.Now()
			span("core.verify_all", func() { reports, err = v.VerifyAll(invs, true) })
			traced.add(time.Since(t0))
			tr.end(root)
			if err == nil {
				if got := farmUnsat(v.Network().Topo, reports); !sameStrings(got, expected[c.key]) {
					err = fmt.Errorf("%s: unsatisfied %v, committed table says %v", c.key, got, expected[c.key])
				}
			}
			res.attempt(err)
			st := v.SolverStats()
			solver.Conflicts += st.Conflicts
			solver.Propagations += st.Propagations
			solver.Decisions += st.Decisions
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	proc.report(res, untraced.n())
	satPerOp(res, sat.Stats{}, solver, traced.n())
	if err := summarize(res, tr, cfg.traceOut); err != nil {
		return nil, err
	}
	// Here decode, build and verifier construction happen in every op: report
	// what the stream saw, not the one-off probe.
	self, _ := selfTimes(tr.spans)
	n := float64(traced.n())
	res.metrics["netdesc.decode_ms"] = ms(self["netdesc.decode"]) / n
	res.metrics["netdesc.build_ms"] = ms(self["netdesc.build"]) / n
	res.metrics["core.verifier_new_ms"] = ms(self["core.verifier_new"]) / n
	res.metrics["core.verify_all_ms"] = ms(totalTimes(tr.spans)["core.verify_all"]) / n
	res.metrics["trace.overhead_pct"] = overheadPct(&untraced, &traced)
	res.stamp["inproc_p50_ms"] = medianOf(&untraced, ms)
	res.stamp["traced_p50_ms"] = medianOf(&traced, ms)
	return res, nil
}
