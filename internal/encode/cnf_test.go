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

// TestSliceEncodingCNFPinned pins the exact CNF a SliceEncoding holds on
// the shared fixtures once it has verified the fixture's invariant: the
// same variables in the same order and the same clauses in the same order.
// An encoding grounds what its invariants reach, so its CNF is a function
// of what it has served. Solver search, verdicts, witnesses and conflict
// counts are functions of that CNF, so a change that only makes building
// it cheaper leaves these hashes alone. A change that means to alter the
// encoding updates them on purpose and says so.
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
			"3acff16d72b303cfc4d4ee51ae9f5b81d90e72eb557414b6c057220674ca0b70"},
		{"cache-group", cache.Problem(inv.DataIsolation{Dst: cache.H2, Origin: cache.AddrS}),
			"6d44bce90965bae3964cdbaf8526745f6a229c3b368600ef1e4d8f337bb91243"},
		{"ids-fragment", ids.Problem(inv.Traversal{Dst: ids.Host, SrcPrefix: pkt.HostPrefix(ids.AddrPeer), Vias: []topo.NodeID{ids.IDSNode}}, 3),
			"807c0fbfd90afa940ebe587dc0043c2dc56e1d2280b8f16e599c1b43da132891"},
	}
	for _, c := range cases {
		e, err := NewSliceEncoding(c.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Verify(c.p, Options{}); err != nil {
			t.Fatal(err)
		}
		if got := cnfHash(t, e); got != c.want {
			t.Errorf("%s: CNF sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
