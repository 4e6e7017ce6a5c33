// Command vmn verifies reachability invariants on the built-in evaluation
// networks or on a topology description file, printing per-invariant
// verdicts, slice sizes and — for violations — the offending event
// schedule.
//
// Usage:
//
//	vmn -network enterprise -subnets 6
//	vmn -network datacenter -groups 5 -break-rules 2
//	vmn -network datacenter -groups 5 -with-caches -break-cache
//	vmn -network multitenant -tenants 4
//	vmn -network isp -peerings 3 -subnets 6 -scrubber-bypass
//	vmn -topology examples/topologies/fattree-k4.json
//	vmn -topology bad.json -check
//	vmn -gen fattree -k 16 -out fattree-k16.json
//	vmn -gen vpc -tenants 10000 -shapes 8 -out vpc-10k.json
//
// -topology loads a vmn-topology/1 JSON description (see internal/netdesc
// and DESIGN.md) with its invariant set; -check stops after validation
// and build, printing a summary. Malformed files produce one structured
// file:line:field error and exit status 2. -gen writes a generated
// scenario (fattree | vpc | isp) in canonical form and exits.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/topo"
)

func main() {
	var (
		network   = flag.String("network", "enterprise", "enterprise | datacenter | multitenant | isp")
		subnets   = flag.Int("subnets", 6, "subnets (enterprise, isp)")
		groups    = flag.Int("groups", 4, "policy groups (datacenter)")
		tenants   = flag.Int("tenants", 3, "tenants (multitenant)")
		peerings  = flag.Int("peerings", 2, "peering points (isp)")
		withCache = flag.Bool("with-caches", false, "add caches and data servers (datacenter)")
		breakN    = flag.Int("break-rules", 0, "delete N random firewall deny rules (datacenter)")
		breakCch  = flag.Bool("break-cache", false, "delete protective cache ACLs (datacenter)")
		bypass    = flag.Bool("scrubber-bypass", false, "scrubbed traffic skips firewalls (isp)")
		failures  = flag.Bool("failures", false, "also verify under single middlebox failures")
		noSlices  = flag.Bool("no-slices", false, "verify against the whole network")
		engine    = flag.String("engine", "auto", "auto | sat | explicit")
		seed      = flag.Int64("seed", 0, "which deny rules -break-rules deletes")
		workers   = flag.Int("workers", 0, "verification workers: check pool and explicit-engine search (0 = GOMAXPROCS)")

		topology = flag.String("topology", "", "verify a vmn-topology/1 description file instead of a built-in network")
		check    = flag.Bool("check", false, "with -topology: validate and build only, print a summary, skip verification")
		gen      = flag.String("gen", "", "emit a generated topology description and exit: fattree | vpc | isp")
		out      = flag.String("out", "", "output file for -gen (default stdout)")
		arity    = flag.Int("k", 4, "fat-tree pod arity (-gen fattree; even, 2..32)")
		hostsPE  = flag.Int("hosts-per-edge", 2, "hosts per edge switch (-gen fattree)")
		shapes   = flag.Int("shapes", 4, "distinct tenant security-group shapes (-gen vpc)")
		crossChk = flag.Int("cross-checks", 8, "extra cross-tenant isolation invariants (-gen vpc)")
	)
	flag.Parse()

	if *gen != "" {
		emitTopology(*gen, *out, genParams{
			k: *arity, hostsPerEdge: *hostsPE,
			tenants: *tenants, shapes: *shapes, peerings: *peerings,
			crossChecks: *crossChk, subnets: *subnets,
		})
		return
	}

	eng, err := core.ParseEngine(*engine)
	if err != nil {
		fail("%v", err)
	}
	opts := core.Options{Engine: eng, NoSlices: *noSlices, Workers: *workers}

	var (
		net  *core.Network
		invs []inv.Invariant
		mbs  []topo.NodeID
	)
	if *topology != "" {
		d, n, iv, err := netdesc.BuildFile(*topology)
		if err != nil {
			fail("%v", err)
		}
		net, invs = n, iv
		// -failures on a file topology fails over every middlebox.
		for _, nd := range n.Topo.Nodes() {
			if nd.Kind == topo.Middlebox {
				mbs = append(mbs, nd.ID)
			}
		}
		hosts, switches, externals := 0, 0, 0
		links := 0
		for _, nd := range n.Topo.Nodes() {
			switch nd.Kind {
			case topo.Host:
				hosts++
			case topo.Switch:
				switches++
			case topo.External:
				externals++
			}
			links += len(n.Topo.Neighbors(nd.ID))
		}
		fmt.Printf("%s: %s — %d hosts, %d switches, %d middleboxes, %d externals, %d links, %d invariants, %d packet classes\n",
			*topology, d.Name, hosts, switches, len(mbs), externals, links/2, len(invs), len(d.Classes))
		if *check {
			return
		}
	} else {
		buildBuiltin(*network, builtinParams{
			subnets: *subnets, groups: *groups, tenants: *tenants, peerings: *peerings,
			withCache: *withCache, breakN: *breakN, breakCch: *breakCch, bypass: *bypass,
			seed: *seed,
		}, &net, &invs, &mbs)
	}

	if *failures {
		opts.Scenarios = topo.SingleFailures(mbs)
	}

	v, err := core.NewVerifier(net, opts)
	if err != nil {
		fail("%v", err)
	}
	reports, err := v.VerifyAll(invs, true)
	if err != nil {
		fail("%v", err)
	}

	fmt.Printf("%-34s %-12s %-10s %-9s %-7s %s\n", "invariant", "scenario", "outcome", "satisfied", "engine", "slice")
	bad := 0
	for _, r := range reports {
		scen := "fault-free"
		if r.Scenario.Count() > 0 {
			scen = fmt.Sprintf("fail(%v)", r.Scenario.Nodes())
		}
		mark := "yes"
		if !r.Satisfied {
			mark = "NO"
			bad++
		}
		slice := fmt.Sprintf("%dh+%dmb", r.SliceHosts, r.SliceBoxes)
		if r.Whole {
			slice = "whole"
		}
		reused := ""
		if r.Reused {
			reused = " (by symmetry)"
		}
		fmt.Printf("%-34s %-12s %-10s %-9s %-7s %s%s\n",
			r.Invariant.Name(), scen, r.Result.Outcome, mark, r.Engine, slice, reused)
		if !r.Satisfied && len(r.Result.Trace) > 0 {
			fmt.Println("  violating schedule:")
			for _, e := range r.Result.Trace {
				fmt.Printf("    %s\n", e)
			}
		}
	}
	fmt.Printf("\n%d/%d invariant checks satisfied\n", len(reports)-bad, len(reports))
	if bad > 0 {
		os.Exit(1)
	}
}

// builtinParams sizes a built-in evaluation network (and its optional
// injected misconfigurations).
type builtinParams struct {
	subnets, groups, tenants, peerings int
	withCache, breakCch, bypass        bool
	breakN                             int
	seed                               int64
}

func buildBuiltin(network string, p builtinParams, net **core.Network, invs *[]inv.Invariant, mbs *[]topo.NodeID) {
	switch network {
	case "enterprise":
		e := bench.NewEnterprise(bench.EnterpriseConfig{Subnets: p.subnets, HostsPerSubnet: 1})
		*net = e.Net
		*invs = e.AllInvariants()
		*mbs = []topo.NodeID{e.FWNode}
	case "datacenter":
		d := bench.NewDatacenter(bench.DCConfig{Groups: p.groups, HostsPerGroup: 1, WithCaches: p.withCache})
		if p.breakN > 0 {
			aff := d.DeleteRandomDenyRules(rand.New(rand.NewSource(p.seed)), p.breakN)
			fmt.Printf("injected misconfiguration: deleted deny rules for group pairs %v\n\n", aff)
		}
		if p.breakCch && p.withCache {
			d.DeleteCacheACLs(0, 0)
			fmt.Println("injected misconfiguration: cache 0 may now serve group 0's private data to anyone")
		}
		*net = d.Net
		for a := 0; a < p.groups && a < 4; a++ {
			for b := 0; b < p.groups && b < 4; b++ {
				if a != b {
					*invs = append(*invs, d.IsolationInvariant(a, b))
				}
			}
		}
		if p.withCache {
			for g := 0; g < p.groups && g < 4; g++ {
				*invs = append(*invs, d.DataIsolationInvariant(g))
			}
		}
		*mbs = []topo.NodeID{d.FW1, d.IDS1}
	case "multitenant":
		m := bench.NewMultiTenant(bench.MTConfig{Tenants: p.tenants, PubPerTenant: 2, PrivPerTenant: 2})
		*net = m.Net
		for a := 0; a < p.tenants && a < 3; a++ {
			for b := 0; b < p.tenants && b < 3; b++ {
				if a != b {
					*invs = append(*invs,
						m.PrivPrivInvariant(a, b), m.PubPrivInvariant(a, b), m.PrivPubInvariant(a, b))
				}
			}
		}
		*mbs = m.VSwitchFW
	case "isp":
		i := bench.NewISP(bench.ISPConfig{Peerings: p.peerings, Subnets: p.subnets, ScrubberBypassesFW: p.bypass})
		*net = i.Net
		for s := 0; s < p.subnets && s < 6; s++ {
			*invs = append(*invs, i.Invariant(s, 0))
		}
		*mbs = i.IDSNodes
	default:
		fail("unknown network %q", network)
	}
}

// genParams sizes a generated topology description.
type genParams struct {
	k, hostsPerEdge           int
	tenants, shapes, peerings int
	crossChecks, subnets      int
}

// emitTopology writes a generated scenario in canonical form to out
// ("" or "-" for stdout) and exits via fail on any error.
func emitTopology(kind, out string, p genParams) {
	var d *netdesc.Desc
	switch kind {
	case "fattree":
		d = netdesc.FatTree(p.k, p.hostsPerEdge)
	case "vpc":
		d = netdesc.CloudVPC(netdesc.VPCConfig{
			Tenants: p.tenants, Shapes: p.shapes,
			Peerings: p.peerings, CrossChecks: p.crossChecks,
		})
	case "isp":
		d = netdesc.ISPBackbone(netdesc.ISPBackboneConfig{Peerings: p.peerings, Subnets: p.subnets})
	default:
		fail("unknown generator %q (want fattree, vpc or isp)", kind)
	}
	if out == "" || out == "-" {
		data, err := netdesc.Encode(d)
		if err != nil {
			fail("%v", err)
		}
		os.Stdout.Write(data)
		return
	}
	if err := netdesc.Save(d, out); err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "vmn: wrote %s (%s)\n", out, d.Name)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vmn: "+format+"\n", args...)
	os.Exit(2)
}
