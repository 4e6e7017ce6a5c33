package sat

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDIMACS serializes the solver's problem clauses (not learnt clauses)
// in DIMACS format. Level-0 unit assignments are emitted as unit clauses so
// the output is equisatisfiable with the solver state.
func (s *Solver) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	units := 0
	if len(s.trailLim) == 0 {
		units = len(s.trail)
	} else {
		units = s.trailLim[0]
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), len(s.clauses)+units); err != nil {
		return err
	}
	writeLit := func(l Lit) error {
		n := int(l.Var()) + 1
		if l.Sign() {
			n = -n
		}
		_, err := fmt.Fprintf(bw, "%d ", n)
		return err
	}
	for i := 0; i < units; i++ {
		if err := writeLit(s.trail[i]); err != nil {
			return err
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	for _, c := range s.clauses {
		for _, l := range c.lits {
			if err := writeLit(l); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
