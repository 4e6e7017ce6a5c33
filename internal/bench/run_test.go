package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
)

func TestRowPercentiles(t *testing.T) {
	r := Row{Samples: []time.Duration{5, 1, 3, 2, 4}}
	if r.Percentile(0) != 1 || r.Percentile(100) != 5 {
		t.Fatalf("min/max wrong: %v %v", r.Percentile(0), r.Percentile(100))
	}
	if r.Percentile(50) != 3 {
		t.Fatalf("median wrong: %v", r.Percentile(50))
	}
	empty := Row{}
	if empty.Percentile(50) != 0 {
		t.Fatal("empty row percentile should be 0")
	}
}

func TestSeriesPrint(t *testing.T) {
	s := Series{Fig: "figX", Title: "test", Rows: []Row{{Label: "a", X: 1, Samples: []time.Duration{time.Millisecond}}}}
	var buf bytes.Buffer
	s.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "a") {
		t.Fatalf("print output wrong: %s", out)
	}
}

// Smoke-run every figure at minimum size: exercises all the generators
// and the verdict assertions built into the points, and pins what a Series
// carries — unique label/x rows, and no column or JSON key beyond the ones
// a paper figure sets.
func TestFigureRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow smoke test")
	}
	figures := []Figure{
		Fig2(3),
		Fig3([]int{3, 4}),
		Fig4([]int{3}),
		Fig5([]int{3}),
		Fig7([]int{3, 6}),
		Fig8([]int{2, 3}),
		Fig9b(1, []int{3, 6}),
		Fig9c(3, []int{1, 2}),
		FigExplicit([]int{1, 2}),
	}
	for _, f := range figures {
		s := f.Run(1)
		if len(s.Rows) == 0 {
			t.Fatalf("%s produced no rows", s.Fig)
		}
		seen := map[string]bool{}
		for _, r := range s.Rows {
			if len(r.Samples) == 0 {
				t.Fatalf("%s row %q has no samples", s.Fig, r.Label)
			}
			if (r.States > 0) != (s.Fig == "explicit") {
				t.Fatalf("%s row %q: States = %d", s.Fig, r.Label, r.States)
			}
			key := fmt.Sprintf("%s x=%d", r.Label, r.X)
			if seen[key] {
				t.Fatalf("%s has two rows %q", s.Fig, key)
			}
			seen[key] = true
		}

		var buf bytes.Buffer
		s.Print(&buf)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) != 2+len(s.Rows) {
			t.Fatalf("%s: Print wrote %d lines for %d rows:\n%s", s.Fig, len(lines), len(s.Rows), buf.String())
		}
		for i, r := range s.Rows {
			want := 7 // label, x, min, p5, median, p95, max
			if r.States > 0 {
				want += 2 // "<n> st/s"
			}
			if got := len(strings.Fields(lines[2+i])); got != want {
				t.Fatalf("%s: Print row has %d columns, want %d: %q", s.Fig, got, want, lines[2+i])
			}
		}

		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var dec struct {
			Fig, Title string
			Rows       []map[string]json.RawMessage
		}
		d := json.NewDecoder(bytes.NewReader(raw))
		d.DisallowUnknownFields()
		if err := d.Decode(&dec); err != nil {
			t.Fatalf("%s: Series JSON carries a key beyond Fig, Title, Rows: %v", s.Fig, err)
		}
		for _, row := range dec.Rows {
			for k := range row {
				if k != "Label" && k != "X" && k != "Samples" && k != "States" {
					t.Fatalf("%s: Row JSON carries key %q; want only Label, X, Samples, States", s.Fig, k)
				}
			}
		}
	}
}

// TestFigCanonReuseTarget pins the canonicalization acceptance target:
// the multitenant encoding/verdict reuse rate — the fraction of checks
// that never built an encoding because a class representative or an
// isomorphic warm encoding answered for them — must exceed 90% in canon
// mode (the nocanon baseline sits near 25%). Symmetry collapsing is off so
// the canonical machinery, not the classifier heuristic, does the work.
func TestFigCanonReuseTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure test")
	}
	d := NewDatacenter(DCConfig{Groups: 12, HostsPerGroup: 1})
	m := NewMultiTenant(MTConfig{Tenants: 6, PubPerTenant: 1, PrivPerTenant: 1})
	var mtInvs []inv.Invariant
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if a != b {
				mtInvs = append(mtInvs, m.PrivPrivInvariant(a, b), m.PrivPubInvariant(a, b))
			}
		}
	}
	reuse := func(net *core.Network, invs []inv.Invariant, noCanon bool) float64 {
		v := mustVerifier(net, core.Options{Engine: core.EngineSAT, NoCanon: noCanon})
		reports, err := v.VerifyAll(invs, false)
		if err != nil {
			t.Fatal(err)
		}
		_, misses := v.EncodingCacheStats()
		return 1 - float64(misses)/float64(len(reports))
	}
	if got := reuse(m.Net, mtInvs, false); got < 0.9 {
		t.Fatalf("multitenant canonical reuse rate %.2f below the 90%% target", got)
	}
	if got := reuse(m.Net, mtInvs, true); got > 0.5 {
		t.Fatalf("nocanon baseline unexpectedly high (%.2f): the comparison is no longer meaningful", got)
	}
	if got := reuse(d.Net, d.AllIsolationInvariants(), false); got < 0.9 {
		t.Fatalf("datacenter canonical reuse rate %.2f below target", got)
	}
}

// The headline scaling claim: slice verification time is independent of
// network size while whole-network verification grows. Checked on the
// enterprise sweep with a generous factor to stay robust on CI noise.
func TestSlicingScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test")
	}
	s := Fig7([]int{3, 12}).Run(3)
	var sliceT, wholeSmall, wholeBig time.Duration
	for _, r := range s.Rows {
		if r.Label == "private/slice" {
			sliceT = r.Percentile(50)
		}
		if r.Label == "private/whole" && r.X == 3 {
			wholeSmall = r.Percentile(50)
		}
		if r.Label == "private/whole" && r.X == 12 {
			wholeBig = r.Percentile(50)
		}
	}
	if sliceT == 0 || wholeSmall == 0 || wholeBig == 0 {
		t.Fatalf("missing rows: %v", s.Rows)
	}
	if wholeBig <= wholeSmall {
		t.Logf("warning: whole-network time did not grow (%v vs %v): timing noise?", wholeSmall, wholeBig)
	}
	if sliceT > wholeBig {
		t.Fatalf("slice verification (%v) should not be slower than whole-network at size 12 (%v)", sliceT, wholeBig)
	}
}
