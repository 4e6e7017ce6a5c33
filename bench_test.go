// Benchmarks regenerating every figure of the paper's evaluation (§5) at
// laptop scale, plus ablations of VMN's design choices. A figure's points
// are defined once, in internal/bench: each sub-benchmark here times the
// same closure `vmnbench -fig N` samples, one verification run per
// iteration; the cmd/vmnbench tool prints the full series (sweeps and
// percentiles).
package vmn

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/encode"
	"github.com/netverify/vmn/internal/explore"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/testnet"
	"github.com/netverify/vmn/internal/topo"
)

// benchFigure runs the points of f as sub-benchmarks named label/x=N; the
// per-iteration set-up (network, verifier, seed i) stays outside the timer,
// as in Figure.Run.
func benchFigure(b *testing.B, f bench.Figure) {
	for _, p := range f.Points {
		b.Run(fmt.Sprintf("%s/x=%d", p.Label, p.X), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				body := p.Prep(int64(i))
				b.StartTimer()
				body()
			}
		})
	}
}

func BenchmarkFig2(b *testing.B)  { benchFigure(b, bench.Fig2(5)) }
func BenchmarkFig3(b *testing.B)  { benchFigure(b, bench.Fig3([]int{4, 8, 16})) }
func BenchmarkFig4(b *testing.B)  { benchFigure(b, bench.Fig4([]int{3, 6, 9})) }
func BenchmarkFig5(b *testing.B)  { benchFigure(b, bench.Fig5([]int{3, 6})) }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, bench.Fig7([]int{9, 15, 24})) }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, bench.Fig8([]int{4, 8})) }
func BenchmarkFig9b(b *testing.B) { benchFigure(b, bench.Fig9b(2, []int{6, 12})) }
func BenchmarkFig9c(b *testing.B) { benchFigure(b, bench.Fig9c(6, []int{2, 4})) }

// --- Figure 2, explicit-state engine: the perf target of the binary-
// fingerprint search, on the `explicit` figure's instance (MaxSends 4, so
// the product space — 715 states — is large enough to exercise the search
// loop). One verifier serves every iteration; allocs/op and states explored
// per second are reported alongside wall clock. ---

func benchFig2Explicit(b *testing.B, workers int) {
	b.Helper()
	body := bench.FigExplicit([]int{workers}).Points[0].Prep(0)
	b.ReportAllocs()
	states := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states += body()
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

func BenchmarkFig2ExplicitRulesHoldsW1(b *testing.B) { benchFig2Explicit(b, 1) }
func BenchmarkFig2ExplicitRulesHoldsWMax(b *testing.B) {
	benchFig2Explicit(b, runtime.GOMAXPROCS(0))
}

// --- Ablations (DESIGN.md) ---

// Slicing on vs off on the same instance isolates the §4.1 claim: the two
// private-subnet points of Fig. 7 at 15 subnets.
func BenchmarkAblationSlicing(b *testing.B) {
	f := bench.Fig7([]int{15})
	f.Points = slices.DeleteFunc(f.Points, func(p bench.Point) bool { return !strings.HasPrefix(p.Label, "private/") })
	benchFigure(b, f)
}

// Symmetry on vs off isolates the §4.2 claim.
func benchSymmetry(b *testing.B, useSymmetry bool) {
	for i := 0; i < b.N; i++ {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 8, HostsPerGroup: 1, PolicyTiers: 2})
		v, _ := core.NewVerifier(d.Net, core.Options{Engine: core.EngineSAT})
		if _, err := v.VerifyAll(d.AllIsolationInvariants(), useSymmetry); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWithSymmetry(b *testing.B)    { benchSymmetry(b, true) }
func BenchmarkAblationWithoutSymmetry(b *testing.B) { benchSymmetry(b, false) }

// SAT-based vs explicit-state engine on identical slices.
func BenchmarkAblationEngineSAT(b *testing.B) {
	f := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw"))
	for i := 0; i < b.N; i++ {
		p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
		if _, err := encode.Verify(p, encode.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEngineExplicit(b *testing.B) {
	f := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw"))
	for i := 0; i < b.N; i++ {
		p := f.Problem(inv.SimpleIsolation{Dst: f.HA, SrcAddr: f.AddrB}, topo.NoFailures())
		if _, err := explore.Verify(p, explore.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
