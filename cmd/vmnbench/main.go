// Command vmnbench regenerates the paper's evaluation figures (§5) as
// text tables: per-row min/p5/median/p95/max over repeated runs, the same
// statistics the paper's box-and-whisker plots report. The extra
// "explicit" figure sweeps the explicit-state engine's search workers.
// End-to-end and per-layer numbers for the daemon, the incremental
// session and the topology frontend come from benchmark/ (vmnperf), not
// from here.
//
// Usage:
//
//	vmnbench -fig all -runs 5
//	vmnbench -fig 7 -runs 20
//	vmnbench -fig 2,explicit -runs 10 -json > bench.json
//
// With -json the series are emitted as a single JSON array (duration
// samples in nanoseconds, plus the explored-state count for explicit-
// engine rows), for machine-readable benchmark trajectory tracking.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"github.com/netverify/vmn/internal/bench"
)

// figure is one -fig name; build sizes its sweep by the -scale multiplier.
type figure struct {
	name  string
	build func(sc int) bench.Figure
}

// figures is the one table the flag help, the unknown-name error and the
// dispatch are driven from, in the order -fig all runs them.
var figures = []figure{
	{"2", func(sc int) bench.Figure { return bench.Fig2(5 * sc) }},
	{"3", func(sc int) bench.Figure { return bench.Fig3(mul(sc, 4, 8, 12, 16)) }},
	{"4", func(sc int) bench.Figure { return bench.Fig4(mul(sc, 3, 5, 7, 9)) }},
	{"5", func(sc int) bench.Figure { return bench.Fig5(mul(sc, 3, 5, 7)) }},
	{"7", func(sc int) bench.Figure { return bench.Fig7(mul(sc, 3, 9, 15, 24)) }},
	{"8", func(sc int) bench.Figure { return bench.Fig8(mul(sc, 2, 4, 6, 8)) }},
	{"9b", func(sc int) bench.Figure { return bench.Fig9b(2, mul(sc, 3, 6, 12, 18)) }},
	{"9c", func(sc int) bench.Figure { return bench.Fig9c(6, mul(sc, 1, 2, 4, 6)) }},
	{"explicit", func(int) bench.Figure { return bench.FigExplicit([]int{1, 2, 4, 8}) }},
}

func mul(sc int, xs ...int) []int {
	for i := range xs {
		xs[i] *= sc
	}
	return xs
}

func figureNames() string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return strings.Join(names, ",") + " or all"
}

// selectFigures resolves a -fig argument to table entries, in table order.
// Any unknown name fails the whole selection, so nothing runs on a typo.
func selectFigures(arg string) ([]figure, error) {
	want := map[string]bool{}
	var unknown []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		known := func(f figure) bool { return f.name == name }
		if name != "all" && !slices.ContainsFunc(figures, known) {
			unknown = append(unknown, strconv.Quote(name))
		}
		want[name] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown figure %s (want %s)", strings.Join(unknown, ", "), figureNames())
	}
	var sel []figure
	for _, f := range figures {
		if want["all"] || want[f.name] {
			sel = append(sel, f)
		}
	}
	return sel, nil
}

func main() {
	fig := flag.String("fig", "all", "figures to regenerate: "+figureNames())
	runs := flag.Int("runs", 5, "repetitions per data point (paper uses 100)")
	scale := flag.Int("scale", 1, "size multiplier for the sweeps (1 = quick laptop scale)")
	asJSON := flag.Bool("json", false, "emit the series as JSON instead of text tables")
	flag.Parse()

	sel, err := selectFigures(*fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmnbench: %v\n", err)
		os.Exit(2)
	}
	sc := max(*scale, 1)
	var series []bench.Series
	for _, f := range sel {
		s := f.build(sc).Run(*runs)
		if *asJSON {
			series = append(series, s)
		} else {
			s.Print(os.Stdout)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(series); err != nil {
			fmt.Fprintf(os.Stderr, "vmnbench: %v\n", err)
			os.Exit(1)
		}
	}
}
