package encode

import (
	"fmt"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/testnet"
	"github.com/netverify/vmn/internal/topo"
)

// coneFamilies are violatedFamilies plus families mixing holding and
// violated invariants: the restrictive firewall pair, the cache group
// behind its protective ACLs, and the IDS fragment with the host's reply
// to the peer added, which crosses the IDS unwatched and so reads no
// class. The problems of a family differ only in the invariant, so they
// share an encoding.
func coneFamilies() [][]*inv.Problem {
	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	fw := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw", mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB))))
	client, guest := pkt.HostPrefix(pkt.MustParseAddr("10.0.1.1")), pkt.HostPrefix(pkt.MustParseAddr("10.2.0.1"))
	cg := testnet.NewCacheGroup(mbox.NewContentCache("cache", mbox.DenyEntry(client, guest)),
		&mbox.LearningFirewall{InstanceName: "fw", ACL: []mbox.ACLEntry{mbox.DenyEntry(client, guest), mbox.DenyEntry(guest, client)}, DefaultAllow: true})
	ids := testnet.NewIDSFragment(testnet.NewIDSRegistry())
	idsProblem := func(i inv.Invariant) *inv.Problem {
		p := ids.Problem(i, 3)
		p.Samples = append(p.Samples, inv.Sample{Sender: ids.Host, Hdr: pkt.Header{Src: ids.AddrHost, Dst: ids.AddrPeer, SrcPort: 80, DstPort: 1000, Proto: pkt.TCP}})
		return p
	}
	return append(violatedFamilies(), []*inv.Problem{
		fw.Problem(inv.SimpleIsolation{Dst: fw.HA, SrcAddr: fw.AddrB}, topo.NoFailures()),
		fw.Problem(inv.FlowIsolation{Dst: fw.HA, SrcAddr: fw.AddrB}, topo.NoFailures()),
		fw.Problem(inv.Reachability{Dst: fw.HB, SrcAddr: fw.AddrA}, topo.NoFailures()),
		fw.Problem(inv.SimpleIsolation{Dst: fw.HB, SrcAddr: fw.AddrA}, topo.NoFailures()),
	}, []*inv.Problem{
		cg.Problem(inv.DataIsolation{Dst: cg.H2, Origin: cg.AddrS}),
		cg.Problem(inv.DataIsolation{Dst: cg.H1, Origin: cg.AddrS}),
		cg.Problem(inv.SimpleIsolation{Dst: cg.H2, SrcAddr: cg.AddrS}),
		cg.Problem(inv.SimpleIsolation{Dst: cg.H1, SrcAddr: cg.AddrS}),
	}, []*inv.Problem{
		idsProblem(inv.Traversal{Dst: ids.Host, SrcPrefix: pkt.HostPrefix(ids.AddrPeer), Vias: []topo.NodeID{ids.IDSNode}}),
		idsProblem(inv.SimpleIsolation{Dst: ids.Host, SrcAddr: ids.AddrPeer}),
		idsProblem(inv.Reachability{Dst: ids.Host, SrcAddr: ids.AddrPeer}),
	})
}

// FuzzConeGrounding checks that grounding on demand changes no verdict or
// witness. The input picks a family and an order of the family's
// invariants, repeats allowed; one encoding grounds lazily while it serves
// them in that order, and each is also verified on a cold encoding
// grounded up front (GroundAllReadKeys). Verdicts and traces must be
// identical.
func FuzzConeGrounding(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0})
	f.Add([]byte{1, 2, 1, 0})
	f.Add([]byte{4, 3, 2, 1, 0})
	f.Add([]byte{5, 0, 1, 2, 3, 1})
	f.Add([]byte{6, 2, 0, 1, 0})
	fams := coneFamilies()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		fam := fams[int(data[0])%len(fams)]
		var opts Options
		eager := Options{GroundAllReadKeys: true}
		lazy, err := NewSliceEncoding(fam[0], opts)
		if err != nil {
			t.Fatal(err)
		}
		order := data[1:min(len(data), 9)]
		for i, b := range order {
			p := fam[int(b)%len(fam)]
			got, err := lazy.Verify(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Verify(p, eager)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("family %d check %d %s", int(data[0])%len(fams), i, p.Invariant.Name()), got, want)
		}
	})
}
