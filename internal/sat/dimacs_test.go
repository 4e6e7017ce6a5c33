package sat

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestParseDIMACSBasic(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2 0
2 3 0
`
	s, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVars() != 3 || s.NumClauses() != 2 {
		t.Fatalf("vars=%d clauses=%d", s.NumVars(), s.NumClauses())
	}
	if s.Solve() != Sat {
		t.Fatal("should be SAT")
	}
}

func TestParseDIMACSWithoutHeader(t *testing.T) {
	s, err := ParseDIMACS(strings.NewReader("1 2 0\n-1 0\n-2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != Unsat {
		t.Fatal("should be UNSAT")
	}
}

func TestParseDIMACSClauseWithoutTrailingZero(t *testing.T) {
	s, err := ParseDIMACS(strings.NewReader("p cnf 2 1\n1 2"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != Sat {
		t.Fatal("should be SAT")
	}
}

func TestParseDIMACSBadHeader(t *testing.T) {
	if _, err := ParseDIMACS(strings.NewReader("p sat 3 2\n")); err == nil {
		t.Fatal("expected error for non-cnf header")
	}
	if _, err := ParseDIMACS(strings.NewReader("p cnf x 2\n")); err == nil {
		t.Fatal("expected error for non-numeric var count")
	}
}

func TestParseDIMACSBadLiteral(t *testing.T) {
	if _, err := ParseDIMACS(strings.NewReader("1 foo 0\n")); err == nil {
		t.Fatal("expected error for bad literal")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	s := newSolverWithVars(4)
	s.AddClause(lit(1), lit(-2))
	s.AddClause(lit(2), lit(3), lit(-4))
	s.AddClause(lit(-1))
	var buf bytes.Buffer
	if err := writeDIMACS(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Solve(), s.Solve(); got != want {
		t.Fatalf("round-trip changed verdict: %v vs %v", got, want)
	}
}

func TestDIMACSRoundTripUnsat(t *testing.T) {
	s := New()
	pigeonhole(s, 3)
	var buf bytes.Buffer
	if err := writeDIMACS(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Solve() != Unsat {
		t.Fatal("round-tripped pigeonhole should stay UNSAT")
	}
}

// writeDIMACS writes s's problem clauses (see Solver.Clauses) in DIMACS
// format, canonically: each clause's literals in the order AddClause
// sorts them into, and the clauses in sorted order. The dump is a
// function of the CNF, not of the order propagation left literals in.
func writeDIMACS(w io.Writer, s *Solver) error {
	var cls [][]Lit
	s.Clauses(func(lits []Lit) {
		c := slices.Clone(lits)
		slices.Sort(c)
		cls = append(cls, c)
	})
	slices.SortFunc(cls, slices.Compare[[]Lit])
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(cls))
	for _, c := range cls {
		for _, l := range c {
			fmt.Fprintf(bw, "%v ", l)
		}
		bw.WriteString("0\n")
	}
	return bw.Flush()
}

// ParseDIMACS reads a CNF formula in DIMACS format into a fresh solver.
// Comment lines ("c ...") are skipped; the "p cnf V C" header is optional
// but, when present, pre-allocates variables. Literals are 1-based signed
// integers; each clause is terminated by 0.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var cur []Lit
	ensure := func(v int) {
		for s.NumVars() < v {
			s.NewVar()
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: malformed DIMACS header %q", line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("sat: bad variable count in %q", line)
			}
			ensure(nv)
			continue
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("sat: bad literal %q", tok)
			}
			if n == 0 {
				s.AddClause(cur...)
				cur = cur[:0]
				continue
			}
			v := n
			if v < 0 {
				v = -v
			}
			ensure(v)
			cur = append(cur, MkLit(Var(v-1), n < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		s.AddClause(cur...)
	}
	return s, nil
}
