package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAll runs every workload n times, each run in a fresh process of this
// binary so peak memory and heap state never leak from one workload into the
// next, and passes the runs' tables through. With n > 1 it is the self-check:
// per end-to-end series it prints min/median/max and fails when the runs
// differ by more than the series' bound. It returns the exit status.
func runAll(cfg runConfig, scratch string, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fail("%v", err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	status := 0
	for _, w := range workloads {
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "-vmnd", cfg.vmnd, "-scratch", scratch, "--workload", w.name,
				"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"--trace", map[bool]string{false: "0", true: "1"}[cfg.trace])
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				fmt.Printf("%s: run %d failed: %v\n", w.name, i+1, err)
				status = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Printf("%s: run %d printed no result line: %v\n", w.name, i+1, err)
				status = 1
				continue
			}
			for name, m := range res.Metrics {
				series[name] = append(series[name], m.Value)
			}
		}
		if n < 2 {
			continue
		}
		fmt.Printf("# selfcheck %s: %d runs\n", w.name, n)
		for _, d := range defs {
			v := append([]float64(nil), series[d.Name]...)
			if len(v) < 2 {
				continue
			}
			sort.Float64s(v)
			med := v[len(v)/2]
			if len(v)%2 == 0 {
				med = (v[len(v)/2-1] + v[len(v)/2]) / 2
			}
			verdict := ""
			if bound := bounds[d.Name]; bound > 0 && med != 0 {
				if diff := (v[len(v)-1] - v[0]) / med; diff > bound {
					verdict = fmt.Sprintf("  DIFFERS by %.1f%%, bound %.0f%%", 100*diff, 100*bound)
					status = 1
				}
			}
			fmt.Printf("%-28s min %12.4f  median %12.4f  max %12.4f %s%s\n", d.Name, v[0], med, v[len(v)-1], d.Unit, verdict)
		}
	}
	return status
}
