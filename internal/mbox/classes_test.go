package mbox_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/testnet"
	"github.com/netverify/vmn/internal/topo"
)

// coverNet is a shipped network as TestRelevantClassesCover sees it: its
// boxes, its class registry and the sample headers its checks send.
type coverNet struct {
	name  string
	boxes []mbox.Instance
	reg   *pkt.Registry
	hdrs  []pkt.Header
}

// coverProblems gathers the boxes, registry and sample headers of
// problems over one network.
func coverProblems(name string, ps ...*inv.Problem) coverNet {
	n := coverNet{name: name, boxes: ps[0].Boxes, reg: ps[0].Registry}
	for _, p := range ps {
		for _, s := range p.Samples {
			if !slices.Contains(n.hdrs, s.Hdr) {
				n.hdrs = append(n.hdrs, s.Hdr)
			}
		}
	}
	return n
}

// coverPlanned is coverProblems over the checks core plans for invs under
// no failure, with every box of net checked, in a slice or not.
func coverPlanned(t *testing.T, name string, net *core.Network, invs []inv.Invariant) coverNet {
	t.Helper()
	v, err := core.NewVerifier(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ps []*inv.Problem
	for _, i := range invs {
		cp, err := v.PlanOn(i, topo.NoFailures(), v.EngineFor(topo.NoFailures()))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, cp.Problem())
	}
	n := coverProblems(name, ps...)
	n.boxes = net.Boxes
	return n
}

// coverNets are the shipped networks: the bench datacenters with and
// without caches, the ISP backbone with its scrubber, the example topology
// files, and the testnet fixtures, the IDS fragment as encode's cone
// families extend it (the host's reply to the peer added).
func coverNets(t *testing.T) []coverNet {
	t.Helper()
	dc := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 2})
	dcInvs := append(dc.AllIsolationInvariants(), dc.TraversalInvariant(0, 1))
	cdc := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1, WithCaches: true})
	nets := []coverNet{
		coverPlanned(t, "datacenter", dc.Net, dcInvs),
		coverPlanned(t, "datacenter-caches", cdc.Net, []inv.Invariant{cdc.DataIsolationInvariant(0), cdc.DataIsolationInvariant(1)}),
	}
	isp, invs, err := netdesc.Build(netdesc.ISPBackbone(netdesc.ISPBackboneConfig{Peerings: 2, Subnets: 6}), "")
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, coverPlanned(t, "ispbackbone", isp, invs))
	files, err := filepath.Glob("../../examples/topologies/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("example topologies: %v, %d files", err, len(files))
	}
	for _, f := range files {
		_, net, invs, err := netdesc.BuildFile(f)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, coverPlanned(t, filepath.Base(f), net, invs))
	}

	aA, aB := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	fw := testnet.NewFirewallPair(mbox.NewLearningFirewall("fw", mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB))))
	client, guest := pkt.HostPrefix(pkt.MustParseAddr("10.0.1.1")), pkt.HostPrefix(pkt.MustParseAddr("10.2.0.1"))
	cg := testnet.NewCacheGroup(mbox.NewContentCache("cache", mbox.DenyEntry(client, guest)),
		&mbox.LearningFirewall{InstanceName: "fw", ACL: []mbox.ACLEntry{mbox.DenyEntry(client, guest)}, DefaultAllow: true})
	ids := testnet.NewIDSFragment(testnet.NewIDSRegistry())
	idsP := ids.Problem(inv.Reachability{Dst: ids.Host, SrcAddr: ids.AddrPeer}, 3)
	idsP.Samples = append(idsP.Samples, inv.Sample{Sender: ids.Host, Hdr: pkt.Header{Src: ids.AddrHost, Dst: ids.AddrPeer, SrcPort: 80, DstPort: 1000, Proto: pkt.TCP}})
	return append(nets,
		coverProblems("firewall-pair", fw.Problem(inv.SimpleIsolation{Dst: fw.HA, SrcAddr: fw.AddrB}, topo.NoFailures())),
		coverProblems("cache-group", cg.Problem(inv.DataIsolation{Dst: cg.H2, Origin: cg.AddrS})),
		coverProblems("ids-fragment", idsP))
}

// TestRelevantClassesCover: a box declares every class its configuration
// reads (mbox.Model), so flipping a class it does not declare changes
// nothing it does. For every box of every coverNets network, every sample
// header, the boot state and each state holding one key the box reads, and
// every consistent class assignment, flipping an undeclared registry class
// leaves ReadKeys as it was, makes Process take the same branch, and every
// output carries the flipped classes.
func TestRelevantClassesCover(t *testing.T) {
	for _, n := range coverNets(t) {
		if n.reg == nil || n.reg.Len() == 0 {
			continue // no class to flip
		}
		all := pkt.ClassSet(1)<<n.reg.Len() - 1
		flips := 0
		for _, b := range n.boxes {
			undeclared := all &^ b.Model.RelevantClasses(n.reg)
			states := []mbox.State{b.Model.InitState()}
			reader, _ := b.Model.(mbox.KeyReader)
			if _, keyed := mbox.SetStateKeys(states[0]); keyed && reader != nil {
				var keys []string
				for _, h := range n.hdrs {
					for _, k := range reader.ReadKeys(mbox.Input{Hdr: h}) {
						if !slices.Contains(keys, k) {
							keys, states = append(keys, k), append(states, mbox.SetStateWith(k))
						}
					}
				}
			}
			for _, h := range n.hdrs {
				for _, cls := range n.reg.EnumerateConsistent(all) {
					for c := pkt.Class(0); int(c) < n.reg.Len(); c++ {
						flipped := cls ^ pkt.ClassSet(0).With(c)
						if !undeclared.Has(c) || !n.reg.Consistent(flipped) {
							continue
						}
						in, alt := mbox.Input{Hdr: h, Classes: cls}, mbox.Input{Hdr: h, Classes: flipped}
						label := func() string {
							return fmt.Sprintf("%s: box %d (%s) flipping %s on %+v under %s", n.name, b.Node, b.Model.Type(), n.reg.Name(c), h, n.reg.String(cls))
						}
						if reader != nil && !slices.Equal(reader.ReadKeys(in), reader.ReadKeys(alt)) {
							t.Fatalf("%s: ReadKeys %v, flipped %v", label(), reader.ReadKeys(in), reader.ReadKeys(alt))
						}
						for _, st := range states {
							if want, got := b.Model.Process(st, in), b.Model.Process(st, alt); !sameBranches(want, got, flipped) {
								t.Fatalf("%s in state %q: Process %+v, flipped %+v", label(), st.Key(), want, got)
							}
							flips++
						}
					}
				}
			}
		}
		if flips == 0 {
			t.Errorf("%s: no undeclared class flipped on any box", n.name)
		}
	}
}

// sameBranches reports whether got, Process's answer under flipped
// classes, takes want's branches: the same labels, successor states and
// headers, every output carrying flipped.
func sameBranches(want, got []mbox.Branch, flipped pkt.ClassSet) bool {
	return slices.EqualFunc(want, got, func(w, g mbox.Branch) bool {
		return g.Label == w.Label && g.Next.Key() == w.Next.Key() &&
			slices.EqualFunc(w.Out, g.Out, func(w, g mbox.Output) bool { return g.Hdr == w.Hdr && g.Classes == flipped })
	})
}
