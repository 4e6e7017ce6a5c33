package core_test

// The keying refactor's oracle: SHA-256 digests, recorded by running the
// parent commit, of every key a verdict is looked up under — each native
// model's exact, read and canonical configuration keys, and every check's
// canonical class key, canonical encoding key and exact encoding key — on
// the four internal/bench networks and the three netdesc generators.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/encode"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

func exactKey(m mbox.Model) ([]byte, bool) { return mbox.ExactKey(nil, m) }

func readKey(m mbox.Model, universe topo.AtomSet) ([]byte, bool) {
	return mbox.ReadKey(nil, m, universe)
}

// canonConfigKey is the canonical key of a problem that consists of the
// given address universe and one box configuration.
func canonConfigKey(t *topo.Topology, eng *tf.Engine, universe []pkt.Addr, m mbox.Model) []byte {
	c := slices.NewCanonizer(t, eng)
	for _, a := range universe {
		c.Addr(a)
	}
	if !c.PutBoxConfig(m) {
		return nil
	}
	return c.Key()
}

type keyedNet struct {
	name string
	net  *core.Network
	invs []inv.Invariant
	opts core.Options
}

func keyedNets(t *testing.T) []keyedNet {
	t.Helper()
	dc := bench.NewDatacenter(bench.DCConfig{Groups: 4, HostsPerGroup: 2})
	dcInvs := dc.AllIsolationInvariants()
	cdc := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1, WithCaches: true})
	var cdcInvs []inv.Invariant
	for g := 0; g < 3; g++ {
		dcInvs = append(dcInvs, dc.TraversalInvariant(g, g+1))
		cdcInvs = append(cdcInvs, cdc.DataIsolationInvariant(g))
	}
	ent := bench.NewEnterprise(bench.EnterpriseConfig{Subnets: 6, HostsPerSubnet: 2})
	isp := bench.NewISP(bench.ISPConfig{Peerings: 2, Subnets: 6})
	var ispInvs []inv.Invariant
	for s := 0; s < 6; s++ {
		ispInvs = append(ispInvs, isp.Invariant(s, s%2))
	}
	mt := bench.NewMultiTenant(bench.MTConfig{Tenants: 3, PubPerTenant: 2, PrivPerTenant: 2})
	var mtInvs []inv.Invariant
	for a := 0; a < 3; a++ {
		b := (a + 1) % 3
		mtInvs = append(mtInvs, mt.PrivPrivInvariant(a, b), mt.PubPrivInvariant(a, b), mt.PrivPubInvariant(a, b))
	}
	out := []keyedNet{
		{"datacenter", dc.Net, dcInvs, core.Options{Engine: core.EngineSAT,
			Scenarios: []topo.FailureScenario{topo.NoFailures(), topo.Failures(dc.FW1)}}},
		{"datacenter-caches", cdc.Net, cdcInvs, core.Options{Engine: core.EngineSAT}},
		{"enterprise", ent.Net, ent.AllInvariants(), core.Options{MaxConflicts: 5000}},
		{"isp", isp.Net, ispInvs, core.Options{Engine: core.EngineExplicit, MaxSends: 3, NoSlices: true}},
		{"multitenant", mt.Net, mtInvs, core.Options{}},
	}
	for _, g := range []struct {
		name string
		desc *netdesc.Desc
	}{
		{"fattree", netdesc.FatTree(4, 1)},
		{"ispbackbone", netdesc.ISPBackbone(netdesc.ISPBackboneConfig{Peerings: 2, Subnets: 6})},
		{"cloudvpc", netdesc.CloudVPC(netdesc.VPCConfig{Tenants: 8, Shapes: 3, Peerings: 1, CrossChecks: 2})},
	} {
		net, invs, err := netdesc.Build(g.desc, "")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, keyedNet{g.name, net, invs, core.Options{}})
	}
	return out
}

type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

// add folds one length-framed key into the digest; a missing key (nil) and
// an empty one digest differently.
func (d digest) add(key []byte, ok bool) {
	if !ok {
		d.h.Write([]byte{0})
		return
	}
	d.h.Write(binary.AppendUvarint([]byte{1}, uint64(len(key))))
	d.h.Write(key)
}

func (d digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

func TestKeysByteIdentical(t *testing.T) {
	want := map[string]string{
		"cloudvpc":          "checks=19 canonical=19 boxes=38 exact=45fa62938591b226 read=9286f96987c6c118 class=1c7ab7f58e4c4979 enc=05878533e3cb96a1 encx=fb9d5f8c5f299b9f",
		"datacenter":        "checks=30 canonical=30 boxes=66 exact=bcf88e875a167b5b read=c38999f60959f4df class=6c42862cb4005ed2 enc=9542a4d7d8b97945 encx=4052b6dd2b22ee54",
		"datacenter-caches": "checks=3 canonical=3 boxes=15 exact=6e606ba9303fd23a read=6e606ba9303fd23a class=44ecb28489f18ef9 enc=8aec9e65dcf4884a encx=a3981690566d3809",
		"enterprise":        "checks=6 canonical=6 boxes=12 exact=aa3d65a1f99d77f6 read=a97174351c1de40d class=dce63e3064352a91 enc=2335b54e7c12d38c encx=61633ce0e20f3b8d",
		"fattree":           "checks=8 canonical=8 boxes=16 exact=73ddf4a4d1bd3d44 read=73ddf4a4d1bd3d44 class=4b60e8ec93e9c39f enc=d0983ef7ceaa5b0c encx=61ff912ff371d876",
		"isp":               "checks=6 canonical=0 boxes=30 exact=6995030ad8248d11 read=1d0d0664cd745c93 class=b0f66adc83641586 enc=b0f66adc83641586 encx=5d982ff890ac6be1",
		"ispbackbone":       "checks=6 canonical=6 boxes=21 exact=cde17d3fb95999fe read=087a9ff5dbafac5a class=62941e075443a1ef enc=581f627fdf39df0d encx=7e9d6403704aaa54",
		"models":            "exact=27a39e332b6d587c read=2febd4c70ce43edc canon=be786ea1b1b15181",
		"multitenant":       "checks=9 canonical=9 boxes=18 exact=8600ff49e800bb69 read=3ba2d3bf2a6c9cd4 class=8af7b124f5b73a75 enc=cdf21ac2dd2eaa70 encx=65bb4925e11b9fed",
	}
	got := map[string]string{}
	for _, kn := range keyedNets(t) {
		v, err := core.NewVerifier(kn.net, kn.opts)
		if err != nil {
			t.Fatal(err)
		}
		scens := kn.opts.Scenarios
		if len(scens) == 0 {
			scens = []topo.FailureScenario{topo.NoFailures()}
		}
		exact, read, class, enc, encx := newDigest(), newDigest(), newDigest(), newDigest(), newDigest()
		checks, canonical, boxes := 0, 0, 0
		for _, sc := range scens {
			eng := v.EngineFor(sc)
			for _, i := range kn.invs {
				cp, err := v.PlanOn(i, sc, eng)
				if err != nil {
					t.Fatal(err)
				}
				checks++
				if cp.CanonKey() != nil {
					canonical++
				}
				boxes += len(cp.Slice().Boxes)
				class.add(cp.CanonKey(), cp.CanonKey() != nil)
				enc.add(cp.EncKey(), cp.EncKey() != nil)
				p := cp.Problem()
				encx.add(encode.AppendEncodingKey(nil, p, encode.Options{MaxConflicts: kn.opts.MaxConflicts}))
				universe := slices.ComputeReadSet(kn.net.Topo, eng, cp.Slice()).Universe
				for _, b := range cp.Slice().Boxes {
					exact.add(exactKey(b.Model))
					read.add(readKey(b.Model, universe))
				}
			}
		}
		got[kn.name] = fmt.Sprintf("checks=%d canonical=%d boxes=%d exact=%s read=%s class=%s enc=%s encx=%s",
			checks, canonical, boxes, exact, read, class, enc, encx)
	}

	// The nine native models on one hand-built universe, so the models and
	// configuration shapes the networks above never instantiate are pinned
	// too (dead ACL entries and watched prefixes, a NAT, a load balancer,
	// class-less and classed scrubbers, the class-set firewall).
	dc := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
	v, err := core.NewVerifier(dc.Net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := v.EngineFor(topo.NoFailures())
	reg := pkt.NewRegistry()
	universe := []pkt.Addr{bench.HostAddr(0, 0), bench.HostAddr(1, 0), pkt.MustParseAddr("192.0.2.7")}
	acl := []mbox.ACLEntry{
		{Src: bench.ClientPrefix(0), Dst: bench.ClientPrefix(1), Action: mbox.Deny},
		{Src: bench.ClientPrefix(2), Dst: bench.ClientPrefix(1), Action: mbox.Deny}, // dead on universe
		{Src: pkt.HostPrefix(bench.HostAddr(1, 0)), Dst: pkt.Prefix{}, Action: mbox.Allow},
	}
	exact, read, canon := newDigest(), newDigest(), newDigest()
	for _, m := range []mbox.Model{
		&mbox.LearningFirewall{InstanceName: "fw", ACL: acl, DefaultAllow: true},
		mbox.NewLearningFirewall("fw0"),
		&mbox.ContentCache{InstanceName: "cache", ACL: acl[:2]},
		&mbox.NAT{InstanceName: "nat", NATAddr: universe[2], PortBase: 50000},
		mbox.NewLoadBalancer("lb", universe[2], universe[0], universe[1]),
		mbox.NewIDPS("ids", reg, universe[2], bench.ClientPrefix(2), bench.ClientPrefix(0)),
		mbox.NewIDPS("ids0", nil, universe[2]),
		mbox.NewScrubber("scrub", reg),
		mbox.NewScrubber("scrub0", nil),
		mbox.NewPassthrough("gw", "gateway"),
		mbox.NewAppFirewall("appfw", reg, "skype", "jabber"),
		mbox.NewWANOptimizer("wan"),
	} {
		exact.add(exactKey(m))
		read.add(readKey(m, topo.NewAtomSet(universe)))
		ck := canonConfigKey(dc.Net.Topo, eng, universe, m)
		canon.add(ck, ck != nil)
	}
	got["models"] = fmt.Sprintf("exact=%s read=%s canon=%s", exact, read, canon)

	if len(got) != len(want) {
		t.Errorf("%d digests computed, %d recorded", len(got), len(want))
	}
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s:\n  got %s\n want %s", name, g, want[name])
		}
	}
}
