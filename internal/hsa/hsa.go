// Package hsa provides static-datapath analysis in the spirit of Header
// Space Analysis and VeriFlow: loop and blackhole audits over a compiled
// transfer function, and verification of the paper's *pipeline invariants*
// (§2.3) — requirements that traffic classes traverse a given sequence or
// DAG of middlebox types before delivery. VMN delegates pipeline
// invariants to this static machinery and focuses its SMT machinery on
// reachability invariants, exactly as the paper modularizes the problem.
package hsa

import (
	"fmt"
	"slices"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Sequence is a pipeline invariant of the form "all packets from From to
// destinations in DstPrefix must pass middleboxes of these types, in
// order" (intervening middleboxes of other types are allowed).
type Sequence struct {
	Name      string
	From      topo.NodeID
	DstPrefix pkt.Prefix
	MBTypes   []string
}

// DAG is the general pipeline invariant of §2.3: a graph over middlebox
// types; the observed middlebox-type sequence of every matching path must
// be a walk from Start to one of Accept. The empty walk is allowed only if
// Start is itself an accept node.
type DAG struct {
	Name      string
	From      topo.NodeID
	DstPrefix pkt.Prefix
	Start     string
	Edges     map[string][]string
	Accept    map[string]bool
}

// Violation describes one failed pipeline check.
type Violation struct {
	Invariant string
	Dst       topo.NodeID
	Path      []string // middlebox types traversed
	Reason    string
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("hsa: pipeline %q to node %d violated: %s (saw %v)",
		v.Invariant, v.Dst, v.Reason, v.Path)
}

// pathTypes extracts the middlebox type sequence along the static path
// from `from` to dst.
func pathTypes(t *topo.Topology, e *tf.Engine, from topo.NodeID, dst pkt.Addr) ([]string, error) {
	nodes, err := e.Path(from, dst)
	if err != nil {
		return nil, err
	}
	var types []string
	for _, id := range nodes {
		n := t.Node(id)
		if n.Kind == topo.Middlebox {
			types = append(types, n.MBType)
		}
	}
	return types, nil
}

// matchingDests lists host/external nodes whose address matches the prefix,
// excluding the ingress itself.
func matchingDests(t *topo.Topology, from topo.NodeID, prefix pkt.Prefix) []topo.NodeID {
	var out []topo.NodeID
	for _, n := range t.Nodes() {
		if n.ID == from || (n.Kind != topo.Host && n.Kind != topo.External) {
			continue
		}
		if prefix.Matches(n.Addr) {
			out = append(out, n.ID)
		}
	}
	return out
}

// CheckSequence verifies a Sequence invariant against the compiled static
// datapath, returning all violations (nil means the invariant holds).
// Transfer-function errors (loops, drops) are reported as violations too:
// a pipeline cannot be satisfied by traffic that never arrives.
func CheckSequence(t *topo.Topology, e *tf.Engine, inv Sequence) []Violation {
	var out []Violation
	for _, dst := range matchingDests(t, inv.From, inv.DstPrefix) {
		types, err := pathTypes(t, e, inv.From, t.Node(dst).Addr)
		if err != nil {
			out = append(out, Violation{inv.Name, dst, nil, err.Error()})
			continue
		}
		if !isSubsequence(inv.MBTypes, types) {
			out = append(out, Violation{inv.Name, dst, types,
				fmt.Sprintf("required traversal %v not honored", inv.MBTypes)})
		}
	}
	return out
}

func isSubsequence(want, have []string) bool {
	i := 0
	for _, h := range have {
		if i < len(want) && want[i] == h {
			i++
		}
	}
	return i == len(want)
}

// CheckDAG verifies a DAG invariant: every matching path's middlebox-type
// sequence must be a walk in the DAG starting at Start and ending in an
// accept node.
func CheckDAG(t *topo.Topology, e *tf.Engine, inv DAG) []Violation {
	var out []Violation
	for _, dst := range matchingDests(t, inv.From, inv.DstPrefix) {
		types, err := pathTypes(t, e, inv.From, t.Node(dst).Addr)
		if err != nil {
			out = append(out, Violation{inv.Name, dst, nil, err.Error()})
			continue
		}
		if reason := walkDAG(inv, types); reason != "" {
			out = append(out, Violation{inv.Name, dst, types, reason})
		}
	}
	return out
}

func walkDAG(inv DAG, types []string) string {
	cur := inv.Start
	rest := types
	// The first traversed type must be the start node itself.
	if len(rest) == 0 {
		if inv.Accept[cur] {
			return ""
		}
		return fmt.Sprintf("no middleboxes traversed but start %q is not accepting", cur)
	}
	if rest[0] != cur {
		return fmt.Sprintf("first middlebox %q is not the DAG start %q", rest[0], cur)
	}
	for _, next := range rest[1:] {
		if !slices.Contains(inv.Edges[cur], next) {
			return fmt.Sprintf("transition %q -> %q not allowed", cur, next)
		}
		cur = next
	}
	if !inv.Accept[cur] {
		return fmt.Sprintf("walk ends at non-accepting %q", cur)
	}
	return ""
}
