package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/topo"
)

// Point is one data point of a figure, defined once: cmd/vmnbench samples it
// through Figure.Run and the root bench_test.go walks the same points with
// b.Run, so both time the same closure. Prep does one repetition's untimed
// set-up (network, verifier, invariants) and returns the timed body, which
// reports the product states it explored (0 on the SAT engine) and panics
// on a verdict the figure does not expect. The seed only picks which rules
// a figure that breaks the network deletes (Fig. 2); both engines are
// deterministic, so repeated runs of a point differ in timing alone.
type Point struct {
	Label string
	X     int
	Prep  func(seed int64) (body func() int)
}

// Figure is one figure of the paper's evaluation (§5) as a list of points.
type Figure struct {
	Fig    string
	Title  string
	Points []Point
}

// Run samples every point runs times (seeds 0..runs-1) and folds the figure
// into a Series.
func (f Figure) Run(runs int) Series {
	s := Series{Fig: f.Fig, Title: f.Title}
	for _, p := range f.Points {
		row := Row{Label: p.Label, X: p.X}
		for r := 0; r < runs; r++ {
			body := p.Prep(int64(r))
			start := time.Now()
			row.States = body()
			row.Samples = append(row.Samples, time.Since(start))
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// Row is one measured point of a figure: a labelled x-value with repeated
// timing samples (the paper reports min/5th/median/95th/max over 100 runs).
// For explicit-engine rows, States records the (deterministic) number of
// product states explored per run, so consumers can derive states/sec.
type Row struct {
	Label   string
	X       int
	Samples []time.Duration
	States  int `json:",omitempty"`
}

// StatesPerSec derives the exploration throughput from the median sample;
// zero when the row has no state count.
func (r Row) StatesPerSec() float64 {
	med := r.Percentile(50)
	if r.States == 0 || med <= 0 {
		return 0
	}
	return float64(r.States) / med.Seconds()
}

// Percentile returns the p-th percentile (0..100) of the samples.
func (r Row) Percentile(p float64) time.Duration {
	if len(r.Samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.Samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}

// Series is one reproduced figure.
type Series struct {
	Fig   string
	Title string
	Rows  []Row
}

// Print renders the series as a table (min / p5 / median / p95 / max, plus
// states/sec on explicit-engine rows).
func (s Series) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", s.Fig, s.Title)
	fmt.Fprintf(w, "%-28s %6s %10s %10s %10s %10s %10s\n", "series", "x", "min", "p5", "median", "p95", "max")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-28s %6d", r.Label, r.X)
		for _, p := range []float64{0, 5, 50, 95, 100} {
			fmt.Fprintf(w, " %10s", r.Percentile(p).Round(time.Microsecond))
		}
		if sps := r.StatesPerSec(); sps > 0 {
			fmt.Fprintf(w, " %8.0f st/s", sps)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func mustVerifier(net *core.Network, opts core.Options) *core.Verifier {
	v, err := core.NewVerifier(net, opts)
	if err != nil {
		panic(err)
	}
	return v
}

func satOpts() core.Options { return core.Options{Engine: core.EngineSAT} }

// verifyOne builds the verifier (untimed) and returns the timed body that
// checks iv once and panics unless the verdict is holds.
func verifyOne(net *core.Network, opts core.Options, iv inv.Invariant, holds bool) func() int {
	v := mustVerifier(net, opts)
	return func() int {
		rs, err := v.VerifyInvariant(iv)
		if err != nil {
			panic(err)
		}
		if r := rs[0]; r.Satisfied != holds {
			panic(fmt.Sprintf("bench: unexpected verdict for %s: satisfied=%v (want %v), outcome=%v",
				r.Invariant.Name(), r.Satisfied, holds, r.Result.Outcome))
		}
		return rs[0].Result.StatesExplored
	}
}

// verifyAll is verifyOne for a whole invariant set, symmetry on.
func verifyAll(net *core.Network, opts core.Options, invs []inv.Invariant) func() int {
	v := mustVerifier(net, opts)
	return func() int {
		if _, err := v.VerifyAll(invs, true); err != nil {
			panic(err)
		}
		return 0
	}
}

// Fig2 reproduces Figure 2: time to verify a single invariant in the
// datacenter for the three §5.1 scenarios, both when the invariant is
// violated and when it holds.
func Fig2(groups int) Figure {
	failing := func(n topo.NodeID) []topo.FailureScenario {
		return []topo.FailureScenario{topo.Failures(n)}
	}
	iso := func(d *Datacenter, pair [2]int) inv.Invariant { return d.IsolationInvariant(pair[0], pair[1]) }
	scenarios := []struct {
		label      string
		openGroups bool
		holds      bool
		// instance breaks d (violated rows) and returns the failures to
		// verify under and the invariant.
		instance func(d *Datacenter, rng *rand.Rand) ([]topo.FailureScenario, inv.Invariant)
	}{
		{"rules/violated", false, false, func(d *Datacenter, rng *rand.Rand) ([]topo.FailureScenario, inv.Invariant) {
			return nil, iso(d, d.DeleteRandomDenyRules(rng, 1)[0])
		}},
		{"rules/holds", false, true, func(d *Datacenter, _ *rand.Rand) ([]topo.FailureScenario, inv.Invariant) {
			return nil, d.IsolationInvariant(0, 1)
		}},
		{"redundancy/violated", false, false, func(d *Datacenter, rng *rand.Rand) ([]topo.FailureScenario, inv.Invariant) {
			return failing(d.FW1), iso(d, d.DeleteBackupDenyRules(rng, 1)[0])
		}},
		{"redundancy/holds", false, true, func(d *Datacenter, _ *rand.Rand) ([]topo.FailureScenario, inv.Invariant) {
			return failing(d.FW1), d.IsolationInvariant(0, 1)
		}},
		{"traversal/violated", true, false, func(d *Datacenter, _ *rand.Rand) ([]topo.FailureScenario, inv.Invariant) {
			d.BypassIDSUnderFailure = true
			return failing(d.IDS1), d.TraversalInvariant(0, 1)
		}},
		{"traversal/holds", true, true, func(d *Datacenter, _ *rand.Rand) ([]topo.FailureScenario, inv.Invariant) {
			return failing(d.IDS1), d.TraversalInvariant(0, 1)
		}},
	}
	f := Figure{Fig: "fig2", Title: "time per invariant (datacenter scenarios), violated vs holds"}
	for _, sc := range scenarios {
		f.Points = append(f.Points, Point{Label: sc.label, X: groups, Prep: func(seed int64) func() int {
			d := NewDatacenter(DCConfig{Groups: groups, HostsPerGroup: 1, OpenGroups: sc.openGroups})
			failures, iv := sc.instance(d, rand.New(rand.NewSource(seed)))
			opts := core.Options{Engine: core.EngineSAT, Scenarios: failures}
			return verifyOne(d.Net, opts, iv, sc.holds)
		}})
	}
	return f
}

// Fig3 reproduces Figure 3: time to verify all (per-class) isolation
// invariants as policy complexity grows; symmetry collapses nothing here
// because every class is distinct.
func Fig3(classCounts []int) Figure {
	f := Figure{Fig: "fig3", Title: "time to verify all invariants vs policy classes"}
	for _, c := range classCounts {
		f.Points = append(f.Points, Point{Label: "all-invariants", X: c, Prep: func(int64) func() int {
			d := NewDatacenter(DCConfig{Groups: c, HostsPerGroup: 1})
			// One representative invariant per policy class: class i
			// isolated from class i+1.
			var invs []inv.Invariant
			for g := 0; g < c; g++ {
				invs = append(invs, d.IsolationInvariant(g, (g+1)%c))
			}
			return verifyAll(d.Net, satOpts(), invs)
		}})
	}
	return f
}

// Fig4 reproduces Figure 4: per-invariant data-isolation time as policy
// complexity grows (origin-agnostic caches make slices grow with classes).
func Fig4(classCounts []int) Figure {
	f := Figure{Fig: "fig4", Title: "data isolation: time per invariant vs policy classes"}
	for _, c := range classCounts {
		for _, holds := range []bool{true, false} {
			label := "holds"
			if !holds {
				label = "violated"
			}
			f.Points = append(f.Points, Point{Label: label, X: c, Prep: func(int64) func() int {
				d := NewDatacenter(DCConfig{Groups: c, HostsPerGroup: 1, WithCaches: true})
				if !holds {
					d.DeleteCacheACLs(0, 0)
				}
				return verifyOne(d.Net, satOpts(), d.DataIsolationInvariant(0), holds)
			}})
		}
	}
	return f
}

// Fig5 reproduces Figure 5: time to verify all data-isolation invariants.
func Fig5(classCounts []int) Figure {
	f := Figure{Fig: "fig5", Title: "data isolation: all invariants vs policy classes"}
	for _, c := range classCounts {
		f.Points = append(f.Points, Point{Label: "all-data-isolation", X: c, Prep: func(int64) func() int {
			d := NewDatacenter(DCConfig{Groups: c, HostsPerGroup: 1, WithCaches: true})
			var invs []inv.Invariant
			for g := 0; g < c; g++ {
				invs = append(invs, d.DataIsolationInvariant(g))
			}
			return verifyAll(d.Net, satOpts(), invs)
		}})
	}
	return f
}

// sliceVsWhole lays out the points of a Fig. 7–9 sweep: each kind of
// invariant verified on its slice and on the whole network (NoSlices) at
// every size in xs. Slice time is size-independent, so the slice rows are
// measured at xs[0] only. build returns the size-x network and its
// invariant of the given kind, which must hold.
func sliceVsWhole(xs []int, kinds []string, build func(x, kind int) (*core.Network, inv.Invariant)) []Point {
	var pts []Point
	for _, whole := range []bool{false, true} {
		mode := "/slice"
		if whole {
			mode = "/whole"
		}
		for _, x := range xs {
			if !whole && x != xs[0] {
				continue
			}
			for k, kind := range kinds {
				pts = append(pts, Point{Label: kind + mode, X: x, Prep: func(int64) func() int {
					net, iv := build(x, k)
					opts := core.Options{Engine: core.EngineSAT, NoSlices: whole}
					return verifyOne(net, opts, iv, true)
				}})
			}
		}
	}
	return pts
}

// Fig7 reproduces Figure 7: enterprise per-invariant verification time —
// a constant-size slice vs whole-network verification growing with size.
func Fig7(subnetCounts []int) Figure {
	return Figure{Fig: "fig7", Title: "enterprise: slice (flat) vs whole network (grows)",
		Points: sliceVsWhole(subnetCounts, []string{"public", "private", "quarantined"},
			func(n, kind int) (*core.Network, inv.Invariant) {
				e := NewEnterprise(EnterpriseConfig{Subnets: n, HostsPerSubnet: 1})
				return e.Net, e.Invariant(kind) // subnet k is of kind k
			})}
}

// Fig8 reproduces Figure 8: multi-tenant datacenter per-invariant time,
// slice vs whole network as tenants grow.
func Fig8(tenantCounts []int) Figure {
	return Figure{Fig: "fig8", Title: "multi-tenant: slice (flat) vs whole network (grows)",
		Points: sliceVsWhole(tenantCounts, []string{"priv-priv", "pub-priv", "priv-pub"},
			func(n, kind int) (*core.Network, inv.Invariant) {
				m := NewMultiTenant(MTConfig{Tenants: n, PubPerTenant: 2, PrivPerTenant: 2})
				mk := []func(a, b int) inv.Invariant{m.PrivPrivInvariant, m.PubPrivInvariant, m.PrivPubInvariant}
				return m.Net, mk[kind](0, 1)
			})}
}

// ispPrivate is the Fig. 9 instance: the private subnet at peer 0.
func ispPrivate(peerings, subnets int) (*core.Network, inv.Invariant) {
	isp := NewISP(ISPConfig{Peerings: peerings, Subnets: subnets})
	return isp.Net, isp.Invariant(1, 0)
}

// Fig9b reproduces Figure 9b: ISP per-invariant time vs number of subnets
// (5 peering points in the paper; laptop-scaled here).
func Fig9b(peerings int, subnetCounts []int) Figure {
	return Figure{Fig: "fig9b", Title: "ISP: per-invariant time vs subnets, slice vs whole",
		Points: sliceVsWhole(subnetCounts, []string{"private"},
			func(n, _ int) (*core.Network, inv.Invariant) { return ispPrivate(peerings, n) })}
}

// Fig9c reproduces Figure 9c: ISP per-invariant time vs peering points
// (75 subnets in the paper; laptop-scaled here).
func Fig9c(subnets int, peeringCounts []int) Figure {
	return Figure{Fig: "fig9c", Title: "ISP: per-invariant time vs peering points, slice vs whole",
		Points: sliceVsWhole(peeringCounts, []string{"private"},
			func(p, _ int) (*core.Network, inv.Invariant) { return ispPrivate(p, subnets) })}
}

// FigExplicit measures the explicit-state engine on the Fig. 2 datacenter
// "rules/holds" instance at an elevated schedule bound (the explicit
// engine's cost driver), sweeping the search worker count. The verdict,
// trace and state count are identical across worker counts by
// construction, so the sweep isolates the search loop's scaling; states
// explored per run is recorded so consumers can track states/sec.
func FigExplicit(workerCounts []int) Figure {
	f := Figure{Fig: "explicit", Title: "explicit engine: time per invariant vs search workers"}
	for _, workers := range workerCounts {
		f.Points = append(f.Points, Point{Label: fmt.Sprintf("rules-holds/w%d", workers), X: workers,
			Prep: func(int64) func() int {
				d := NewDatacenter(DCConfig{Groups: 5, HostsPerGroup: 1})
				opts := core.Options{Engine: core.EngineExplicit, MaxSends: 4, Workers: workers}
				return verifyOne(d.Net, opts, d.IsolationInvariant(0, 1), true)
			}})
	}
	return f
}
