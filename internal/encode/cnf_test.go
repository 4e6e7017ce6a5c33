package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/sat"
	"github.com/netverify/vmn/internal/testnet"
	"github.com/netverify/vmn/internal/topo"
)

// cnfHash is the SHA-256 of the canonical DIMACS dump of the encoding's
// CNF: the variable count, the clause count and the clauses, each with its
// literals sorted (as AddClause sorts them), in sorted order. It hashes the
// CNF, not the order in which propagation left literals or the solver
// stores clauses.
func cnfHash(e *SliceEncoding) string {
	var cls [][]sat.Lit
	nv := e.Clauses(func(lits []sat.Lit) {
		c := slices.Clone(lits)
		slices.Sort(c)
		cls = append(cls, c)
	})
	slices.SortFunc(cls, slices.Compare[[]sat.Lit])
	h := sha256.New()
	fmt.Fprintf(h, "p cnf %d %d\n", nv, len(cls))
	for _, c := range cls {
		for _, l := range c {
			fmt.Fprintf(h, "%v ", l)
		}
		io.WriteString(h, "0\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSliceEncodingCNFPinned pins the exact CNF a SliceEncoding holds on
// the shared fixtures once it has verified the fixture's invariant, and
// the solver work that verification took. An encoding grounds what its
// invariants reach, so its CNF is a function of what it has served: the
// same variables in the same order and the same clauses. Solver search,
// verdicts, witnesses and conflict counts are functions of that CNF and of
// the order clauses were added in, which the search counts pin. A change
// that only makes building or storing the CNF cheaper leaves both alone.
// A change that means to alter the encoding or the search updates them on
// purpose and says so.
func TestSliceEncodingCNFPinned(t *testing.T) {
	fwPair := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw",
		mbox.AllowEntry(pkt.HostPrefix(pkt.MustParseAddr("10.0.0.1")), pkt.HostPrefix(pkt.MustParseAddr("10.0.0.2")))))
	cache := testnet.NewCacheGroup(mbox.NewContentCache("cache"),
		&mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true})
	ids := testnet.NewIDSFragment(testnet.NewIDSRegistry())
	cases := []struct {
		name  string
		p     *inv.Problem
		want  string
		stats sat.Stats
	}{
		{"firewall-pair", fwPair.Problem(inv.FlowIsolation{Dst: fwPair.HA, SrcAddr: fwPair.AddrB}, topo.NoFailures()),
			"e219c0906248f07c4b59cb2a110ca15d5ca7888d8c5926304cbda7c91d25dac1",
			sat.Stats{Decisions: 3, Propagations: 37, Conflicts: 3, Learnt: 1, SolveCalls: 1}},
		{"cache-group", cache.Problem(inv.DataIsolation{Dst: cache.H2, Origin: cache.AddrS}),
			"53526bab593a4c3b8721e3d5728371635085a36d469ca7be61c144ff1495f5ed",
			sat.Stats{Decisions: 53, Propagations: 691, Conflicts: 9, Learnt: 9, MinimizedLit: 2, SolveCalls: 7}},
		{"ids-fragment", ids.Problem(inv.Traversal{Dst: ids.Host, SrcPrefix: pkt.HostPrefix(ids.AddrPeer), Vias: []topo.NodeID{ids.IDSNode}}, 3),
			"e0f6eb8e101b98bf398b2b2266299a67611644976fc39f8339e2d3b7240e402f",
			sat.Stats{Decisions: 10, Propagations: 93, Conflicts: 5, Learnt: 2, SolveCalls: 1}},
	}
	for _, c := range cases {
		e, err := NewSliceEncoding(c.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Verify(c.p, Options{}); err != nil {
			t.Fatal(err)
		}
		if got := cnfHash(e); got != c.want {
			t.Errorf("%s: CNF sha256 %s, want %s", c.name, got, c.want)
		}
		if got := e.SolverStats(); got != c.stats {
			t.Errorf("%s: solver stats %#v, want %#v", c.name, got, c.stats)
		}
	}
}
