package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/testnet"
	"github.com/netverify/vmn/internal/topo"
)

// cnfHash is the SHA-256 of the DIMACS dump of the encoding's solver:
// variable count, clause count, and every clause's literals in order.
func cnfHash(t *testing.T, e *SliceEncoding) string {
	t.Helper()
	h := sha256.New()
	if err := e.ctx.Solver().WriteDIMACS(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSliceEncodingCNFPinned pins the exact CNF NewSliceEncoding emits on
// the shared fixtures: the same variables in the same order and the same
// clauses in the same order. Solver search, verdicts, witnesses and
// conflict counts are functions of that CNF, so a change that only makes
// building it cheaper leaves these hashes alone. A change that means to
// alter the encoding updates them on purpose and says so.
func TestSliceEncodingCNFPinned(t *testing.T) {
	fwPair := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw",
		mbox.AllowEntry(pkt.HostPrefix(pkt.MustParseAddr("10.0.0.1")), pkt.HostPrefix(pkt.MustParseAddr("10.0.0.2")))))
	cache := testnet.NewCacheGroup(mbox.NewContentCache("cache"),
		&mbox.LearningFirewall{InstanceName: "fw", DefaultAllow: true})
	ids := testnet.NewIDSFragment(testnet.NewIDSRegistry())
	cases := []struct {
		name string
		p    *inv.Problem
		want string
	}{
		{"firewall-pair", fwPair.Problem(inv.FlowIsolation{Dst: fwPair.HA, SrcAddr: fwPair.AddrB}, topo.NoFailures()),
			"fa724ab8da11c16fd59a9bb6057e3e5555c1bb8b479449fe430f409dea7ddcb2"},
		{"cache-group", cache.Problem(inv.DataIsolation{Dst: cache.H2, Origin: cache.AddrS}),
			"4578ed00a19239c41df7ac098c44d6563ecccdc9612ac3e182b3d33fbd3be523"},
		{"ids-fragment", ids.Problem(inv.Traversal{Dst: ids.Host, SrcPrefix: pkt.HostPrefix(ids.AddrPeer), Vias: []topo.NodeID{ids.IDSNode}}, 3),
			"e2a649494b1f55731959ef9a9f02a018acdf7e02f193d67d1366023d43bb237c"},
	}
	for _, c := range cases {
		e, err := NewSliceEncoding(c.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := cnfHash(t, e); got != c.want {
			t.Errorf("%s: CNF sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
