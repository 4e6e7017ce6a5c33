package netdesc

import (
	"fmt"
)

// matchAll is the canonical match-all prefix string.
const matchAll = "*"

// FatTree generates a k-ary fat-tree datacenter description: k pods of
// k/2 edge and k/2 aggregation switches, (k/2)² core switches, and a
// per-pod firewall hanging off the pod's first aggregation switch.
// Routing is deterministic single-path (the primary uplink chain
// edge→agg0→core0; the remaining aggregation and core switches are
// wired-in redundant capacity the primary routing does not use), so the
// transfer function is unambiguous. All traffic entering a pod is
// steered through the pod firewall via ingress-scoped rules.
//
// Hosts sit hostsPerEdge to an edge switch at 10.pod.edge.(i+2); pod p's
// prefix is 10.p.0.0/16. Per pod the description carries one Traversal
// invariant (cross-pod traffic to the pod's first host crosses the pod
// firewall) and one Reachability invariant (that host is reachable from
// the next pod) — 2k invariants total, all isomorphic across pods, which
// is what makes fat-tree verification near-constant in k under
// canonicalization.
func FatTree(k, hostsPerEdge int) *Desc {
	if k < 2 {
		k = 2
	}
	if k%2 != 0 {
		k++
	}
	if k > 32 {
		k = 32 // pod index must fit the second address octet scheme
	}
	if hostsPerEdge < 1 {
		hostsPerEdge = 1
	}
	half := k / 2
	d := &Desc{
		Format: Format,
		Name:   fmt.Sprintf("fattree-k%d", k),
		Comment: fmt.Sprintf("k=%d fat-tree, %d hosts/edge, per-pod firewall, "+
			"deterministic primary-path routing", k, hostsPerEdge),
		FIB: map[string][]Rule{},
	}

	coreName := func(g, j int) string { return fmt.Sprintf("c%d-%d", g, j) }
	aggName := func(p, i int) string { return fmt.Sprintf("p%d-a%d", p, i) }
	edgeName := func(p, i int) string { return fmt.Sprintf("p%d-e%d", p, i) }
	fwName := func(p int) string { return fmt.Sprintf("p%d-fw", p) }
	hostName := func(p, e, i int) string { return fmt.Sprintf("p%d-e%d-h%d", p, e, i) }
	hostAddr := func(p, e, i int) string { return fmt.Sprintf("10.%d.%d.%d", p, e, i+2) }
	podPrefix := func(p int) string { return fmt.Sprintf("10.%d.0.0/16", p) }
	edgePrefix := func(p, e int) string { return fmt.Sprintf("10.%d.%d.0/24", p, e) }

	// Core layer: group g switch j links to agg g of every pod.
	for g := 0; g < half; g++ {
		for j := 0; j < half; j++ {
			d.Nodes = append(d.Nodes, Node{Name: coreName(g, j), Kind: "switch"})
		}
	}
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			d.Nodes = append(d.Nodes, Node{Name: aggName(p, i), Kind: "switch"})
		}
		for i := 0; i < half; i++ {
			d.Nodes = append(d.Nodes, Node{Name: edgeName(p, i), Kind: "switch"})
		}
		d.Nodes = append(d.Nodes, Node{Name: fwName(p), Kind: "middlebox", Box: &Box{
			Type: "firewall",
			ACL:  []ACLRule{{Action: "allow", Src: matchAll, Dst: podPrefix(p)}},
		}})
		for e := 0; e < half; e++ {
			for i := 0; i < hostsPerEdge; i++ {
				d.Nodes = append(d.Nodes, Node{Name: hostName(p, e, i), Kind: "host",
					Addr: hostAddr(p, e, i), Class: "tenant"})
			}
		}
	}

	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				d.Links = append(d.Links, [2]string{edgeName(p, e), aggName(p, a)})
			}
			for i := 0; i < hostsPerEdge; i++ {
				d.Links = append(d.Links, [2]string{hostName(p, e, i), edgeName(p, e)})
			}
		}
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				d.Links = append(d.Links, [2]string{aggName(p, a), coreName(a, j)})
			}
		}
		d.Links = append(d.Links, [2]string{fwName(p), aggName(p, 0)})
	}

	for p := 0; p < k; p++ {
		agg0 := aggName(p, 0)
		var aggRules []Rule
		for e := 0; e < half; e++ {
			edge := edgeName(p, e)
			var edgeRules []Rule
			for i := 0; i < hostsPerEdge; i++ {
				edgeRules = append(edgeRules, Rule{Match: hostAddr(p, e, i), Out: hostName(p, e, i), Priority: 20})
			}
			edgeRules = append(edgeRules, Rule{Match: matchAll, Out: agg0, Priority: 1})
			d.FIB[edge] = edgeRules
			// Pod-bound traffic at agg0 — whether from the core, another
			// edge, or the firewall's return leg — crosses the pod
			// firewall exactly once (the ingress-scoped rule pair).
			aggRules = append(aggRules,
				Rule{Match: edgePrefix(p, e), In: fwName(p), Out: edge, Priority: 30},
				Rule{Match: edgePrefix(p, e), Out: fwName(p), Priority: 20})
		}
		aggRules = append(aggRules, Rule{Match: matchAll, Out: coreName(0, 0), Priority: 1})
		d.FIB[agg0] = aggRules
		d.FIB[fwName(p)] = []Rule{{Match: podPrefix(p), Out: agg0, Priority: 10}}
	}
	var coreRules []Rule
	for p := 0; p < k; p++ {
		coreRules = append(coreRules, Rule{Match: podPrefix(p), Out: aggName(p, 0), Priority: 10})
	}
	d.FIB[coreName(0, 0)] = coreRules

	for p := 0; p < k; p++ {
		q := (p + 1) % k
		d.Invariants = append(d.Invariants,
			Invariant{Type: "traversal", Dst: hostName(p, 0, 0),
				SrcPrefix: fmt.Sprintf("10.%d.0.0/16", q), SrcAddr: hostAddr(q, 0, 0),
				Vias: []string{fwName(p)}, Label: fmt.Sprintf("pod%d-fw-traversal", p)},
			Invariant{Type: "reachability", Dst: hostName(p, 0, 0),
				SrcAddr: hostAddr(q, 0, 0), Label: fmt.Sprintf("pod%d-reach", p)})
	}
	return d
}

// ISPBackboneConfig sizes ISPBackbone.
type ISPBackboneConfig struct {
	// Peerings is the number of peering points (1..256), each an IDPS +
	// stateful-firewall pipeline; peer i is addressed 8.<i>.0.1.
	Peerings int
	// Subnets is the number of customer subnets (1..2560); kinds cycle
	// public/private/quarantined. Subnet s is <10+s/256>.<s%256>.0.0/16:
	// ten /8 blocks, staying below the 20.x space route streams announce
	// into.
	Subnets int
}

// ISPBackbone generates a SWITCHlan-style ISP backbone (the paper's
// §5.3.3 topology as a file): at each peering point external traffic
// crosses an IDPS, which reroutes suspect flows to a central scrubber,
// then a stateful firewall enforcing the per-subnet-kind policy; customer
// subnets hang off the backbone and carry the §5.3.1 invariant per kind
// (public: reachable; private: flow isolation; quarantined: simple
// isolation).
func ISPBackbone(cfg ISPBackboneConfig) *Desc {
	if cfg.Peerings < 1 {
		cfg.Peerings = 1
	}
	if cfg.Peerings > 256 {
		cfg.Peerings = 256
	}
	if cfg.Subnets < 1 {
		cfg.Subnets = 3
	}
	if cfg.Subnets > 2560 {
		cfg.Subnets = 2560
	}
	const scrubberAddr = "100.0.0.9"
	d := &Desc{
		Format:  Format,
		Name:    fmt.Sprintf("isp-p%d-s%d", cfg.Peerings, cfg.Subnets),
		Comment: "ISP backbone: per-peering IDPS+firewall pipeline, central scrubber, customer subnets",
		Classes: []string{"malicious", "attack"},
		FIB:     map[string][]Rule{},
	}
	subnetPrefix := func(s int) string { return fmt.Sprintf("%d.%d.0.0/16", 10+s>>8, s&255) }
	subnetHost := func(s int) string { return fmt.Sprintf("%d.%d.0.1", 10+s>>8, s&255) }
	// customer lists the /8 blocks the subnets occupy; the peering
	// pipelines steer each of them (one rule per block and table).
	var customer []string
	for o := 10; o <= 10+(cfg.Subnets-1)>>8; o++ {
		customer = append(customer, fmt.Sprintf("%d.0.0.0/8", o))
	}
	perBlock := func(r Rule) []Rule {
		out := make([]Rule, len(customer))
		for i, blk := range customer {
			out[i] = r
			out[i].Match = blk
		}
		return out
	}
	peerAddr := func(i int) string { return fmt.Sprintf("8.%d.0.1", i) }
	kindOf := func(s int) string {
		switch s % 3 {
		case 0:
			return "public"
		case 1:
			return "private"
		default:
			return "quarantined"
		}
	}

	d.Nodes = append(d.Nodes, Node{Name: "backbone", Kind: "switch"},
		Node{Name: "sb", Kind: "middlebox", Box: &Box{Type: "scrubber"}})
	d.Links = append(d.Links, [2]string{"sb", "backbone"})

	var watched []string
	var acl []ACLRule
	for s := 0; s < cfg.Subnets; s++ {
		watched = append(watched, subnetPrefix(s))
		switch kindOf(s) {
		case "public":
			acl = append(acl,
				ACLRule{Action: "allow", Src: "8.0.0.0/8", Dst: subnetPrefix(s)},
				ACLRule{Action: "allow", Src: subnetPrefix(s), Dst: "8.0.0.0/8"})
		case "private":
			acl = append(acl, ACLRule{Action: "allow", Src: subnetPrefix(s), Dst: "8.0.0.0/8"})
		}
	}

	for s := 0; s < cfg.Subnets; s++ {
		swC := fmt.Sprintf("swC%d", s)
		h := fmt.Sprintf("h%d", s)
		d.Nodes = append(d.Nodes,
			Node{Name: swC, Kind: "switch"},
			Node{Name: h, Kind: "host", Addr: subnetHost(s), Class: kindOf(s)})
		d.Links = append(d.Links, [2]string{swC, "backbone"}, [2]string{h, swC})
		d.FIB[swC] = []Rule{
			{Match: subnetHost(s), Out: h, Priority: 10},
			{Match: matchAll, Out: "backbone", Priority: 1},
		}
	}

	var backboneRules []Rule
	backboneRules = append(backboneRules, Rule{Match: scrubberAddr, Out: "sb", Priority: 20})
	for i := 0; i < cfg.Peerings; i++ {
		peer := fmt.Sprintf("peer%d", i)
		swP := fmt.Sprintf("swP%d", i)
		ids := fmt.Sprintf("ids%d", i)
		swM := fmt.Sprintf("swM%d", i)
		fw := fmt.Sprintf("fw%d", i)
		d.Nodes = append(d.Nodes,
			Node{Name: peer, Kind: "external", Addr: peerAddr(i), Class: "peer"},
			Node{Name: swP, Kind: "switch"},
			Node{Name: ids, Kind: "middlebox", Box: &Box{Type: "idps", Scrubber: scrubberAddr, Watched: watched}},
			Node{Name: swM, Kind: "switch"},
			Node{Name: fw, Kind: "middlebox", Box: &Box{Type: "firewall", ACL: acl}})
		d.Links = append(d.Links,
			[2]string{peer, swP}, [2]string{swP, ids}, [2]string{ids, swM},
			[2]string{swM, fw}, [2]string{fw, "backbone"}, [2]string{swM, "backbone"})
		d.FIB[swP] = append(perBlock(Rule{In: peer, Out: ids, Priority: 10}),
			Rule{Match: scrubberAddr, In: peer, Out: ids, Priority: 10},
			Rule{Match: peerAddr(i), Out: peer, Priority: 10})
		d.FIB[ids] = append(perBlock(Rule{Out: swM, Priority: 10}),
			Rule{Match: scrubberAddr, Out: swM, Priority: 10},
			Rule{Match: matchAll, Out: swP, Priority: 5})
		d.FIB[swM] = append(append([]Rule{{Match: scrubberAddr, In: ids, Out: "backbone", Priority: 20}},
			perBlock(Rule{In: ids, Out: fw, Priority: 10})...),
			Rule{Match: matchAll, In: fw, Out: ids, Priority: 5})
		d.FIB[fw] = append(perBlock(Rule{Out: "backbone", Priority: 10}),
			Rule{Match: scrubberAddr, Out: "backbone", Priority: 10},
			Rule{Match: matchAll, Out: swM, Priority: 5})
		backboneRules = append(backboneRules, Rule{Match: peerAddr(i), Out: fw, Priority: 10})
	}
	for s := 0; s < cfg.Subnets; s++ {
		// Scrubber-released traffic re-enters through a stateful firewall
		// before delivery (the correct §5.3.3 configuration).
		backboneRules = append(backboneRules,
			Rule{Match: subnetPrefix(s), In: "sb", Out: "fw0", Priority: 30},
			Rule{Match: subnetPrefix(s), Out: fmt.Sprintf("swC%d", s), Priority: 10})
	}
	d.FIB["backbone"] = backboneRules

	for s := 0; s < cfg.Subnets; s++ {
		p := s % cfg.Peerings
		h := fmt.Sprintf("h%d", s)
		label := fmt.Sprintf("%s-%d@peer%d", kindOf(s), s, p)
		switch kindOf(s) {
		case "public":
			d.Invariants = append(d.Invariants, Invariant{Type: "reachability",
				Dst: h, SrcAddr: peerAddr(p), Label: label})
		case "private":
			d.Invariants = append(d.Invariants, Invariant{Type: "flow_isolation",
				Dst: h, SrcAddr: peerAddr(p), Label: label})
		default:
			d.Invariants = append(d.Invariants, Invariant{Type: "simple_isolation",
				Dst: h, SrcAddr: peerAddr(p), Label: label})
		}
	}
	return d
}

// VPCConfig sizes CloudVPC.
type VPCConfig struct {
	// Tenants is the number of tenant VPCs (2..65536).
	Tenants int
	// Shapes is the number of distinct security-group shapes tenants cycle
	// through. Verification cost scales with Shapes, not Tenants: tenants
	// of one shape are isomorphic up to addressing and share one solve.
	Shapes int
	// Peerings is the number of VPC peering pairs (tenants 2i and 2i+1 for
	// i < Peerings). Peered tenants carry extra ACL entries and mutual
	// private-reachability invariants, so each peered pair forms its own
	// shape.
	Peerings int
	// CrossChecks adds cross-tenant flow-isolation spot checks between the
	// first CrossChecks adjacent tenant pairs.
	CrossChecks int
}

// CloudVPC generates a multi-tenant cloud-VPC description: each tenant
// gets a /24 with a public VM (reachable from the internet) and a
// private VM (may initiate outbound but accepts no inbound flows) behind
// a per-tenant security-group firewall; a shared NAT gateway translates
// private outbound traffic, and an internet gateway connects the fabric
// to an external internet node.
//
// Per tenant the description carries a Reachability invariant (internet
// reaches the public VM) and a FlowIsolation invariant (the private VM
// accepts no internet-initiated flows, though its own outbound flows —
// which cross the NAT — get responses). Tenants cycle through Shapes
// distinct security-group shapes; same-shape tenants are isomorphic, so
// verification cost scales with Shapes while the description scales with
// Tenants.
func CloudVPC(cfg VPCConfig) *Desc {
	if cfg.Tenants < 2 {
		cfg.Tenants = 2
	}
	if cfg.Tenants > 65536 {
		cfg.Tenants = 65536
	}
	if cfg.Shapes < 1 {
		cfg.Shapes = 1
	}
	if cfg.Shapes > cfg.Tenants {
		cfg.Shapes = cfg.Tenants
	}
	if cfg.Peerings < 0 {
		cfg.Peerings = 0
	}
	if cfg.Peerings > cfg.Tenants/2 {
		cfg.Peerings = cfg.Tenants / 2
	}
	if cfg.CrossChecks < 0 {
		cfg.CrossChecks = 0
	}
	if cfg.CrossChecks > cfg.Tenants-1 {
		cfg.CrossChecks = cfg.Tenants - 1
	}

	const (
		natAddr  = "100.64.0.1"
		inetAddr = "8.0.0.1"
		internet = "8.0.0.0/8"
	)
	tenantPrefix := func(t int) string { return fmt.Sprintf("10.%d.%d.0/24", t>>8, t&255) }
	pubPrefix := func(t int) string { return fmt.Sprintf("10.%d.%d.0/25", t>>8, t&255) }
	privPrefix := func(t int) string { return fmt.Sprintf("10.%d.%d.128/25", t>>8, t&255) }
	pubAddr := func(t int) string { return fmt.Sprintf("10.%d.%d.1", t>>8, t&255) }
	privAddr := func(t int) string { return fmt.Sprintf("10.%d.%d.129", t>>8, t&255) }
	sw := func(t int) string { return fmt.Sprintf("t%d-sw", t) }
	fw := func(t int) string { return fmt.Sprintf("t%d-fw", t) }
	pub := func(t int) string { return fmt.Sprintf("t%d-pub", t) }
	priv := func(t int) string { return fmt.Sprintf("t%d-priv", t) }

	d := &Desc{
		Format: Format,
		Name:   fmt.Sprintf("vpc-t%d-s%d", cfg.Tenants, cfg.Shapes),
		Comment: fmt.Sprintf("cloud VPC: %d tenants over %d security-group shapes, %d peerings, "+
			"shared NAT + internet gateway", cfg.Tenants, cfg.Shapes, cfg.Peerings),
		FIB: map[string][]Rule{},
	}

	d.Nodes = append(d.Nodes,
		Node{Name: "fab", Kind: "switch"},
		Node{Name: "natgw", Kind: "middlebox", Box: &Box{Type: "nat", Addr: natAddr}},
		Node{Name: "igwsw", Kind: "switch"},
		Node{Name: "inet", Kind: "external", Addr: inetAddr, Class: "internet"})
	d.Links = append(d.Links,
		[2]string{"natgw", "fab"}, [2]string{"natgw", "igwsw"},
		[2]string{"igwsw", "fab"}, [2]string{"igwsw", "inet"})

	peerOf := make(map[int]int)
	for i := 0; i < cfg.Peerings; i++ {
		peerOf[2*i] = 2*i + 1
		peerOf[2*i+1] = 2 * i
	}

	fabRules := []Rule{
		{Match: natAddr, Out: "natgw", Priority: 20},
		{Match: internet, Out: "natgw", Priority: 10},
	}
	for t := 0; t < cfg.Tenants; t++ {
		shape := t % cfg.Shapes
		d.Nodes = append(d.Nodes,
			Node{Name: sw(t), Kind: "switch"},
			Node{Name: fw(t), Kind: "middlebox", Box: &Box{Type: "firewall", ACL: tenantACL(t, shape, peerOf, pubPrefix, privPrefix, tenantPrefix)}},
			Node{Name: pub(t), Kind: "host", Addr: pubAddr(t), Class: fmt.Sprintf("shape%d-pub", shape)},
			Node{Name: priv(t), Kind: "host", Addr: privAddr(t), Class: fmt.Sprintf("shape%d-priv", shape)})
		d.Links = append(d.Links,
			[2]string{pub(t), sw(t)}, [2]string{priv(t), sw(t)},
			[2]string{sw(t), fw(t)}, [2]string{fw(t), "fab"})
		d.FIB[sw(t)] = []Rule{
			{Match: pubAddr(t), Out: pub(t), Priority: 20},
			{Match: privAddr(t), Out: priv(t), Priority: 20},
			{Match: matchAll, Out: fw(t), Priority: 1},
		}
		d.FIB[fw(t)] = []Rule{
			{Match: tenantPrefix(t), Out: sw(t), Priority: 10},
			{Match: matchAll, Out: "fab", Priority: 1},
		}
		fabRules = append(fabRules, Rule{Match: tenantPrefix(t), Out: fw(t), Priority: 10})

		d.Invariants = append(d.Invariants,
			Invariant{Type: "reachability", Dst: pub(t), SrcAddr: inetAddr,
				Label: fmt.Sprintf("t%d-pub-reach", t)},
			Invariant{Type: "flow_isolation", Dst: priv(t), SrcAddr: inetAddr,
				Label: fmt.Sprintf("t%d-priv-isolated", t)})
	}
	d.FIB["fab"] = fabRules
	d.FIB["natgw"] = []Rule{
		{Match: internet, Out: "igwsw", Priority: 10},
		{Match: "10.0.0.0/8", Out: "fab", Priority: 10},
	}
	d.FIB["igwsw"] = []Rule{
		{Match: natAddr, Out: "natgw", Priority: 20},
		{Match: internet, Out: "inet", Priority: 10},
		{Match: "10.0.0.0/8", Out: "fab", Priority: 10},
	}

	for i := 0; i < cfg.Peerings; i++ {
		a, b := 2*i, 2*i+1
		d.Invariants = append(d.Invariants,
			Invariant{Type: "reachability", Dst: priv(b), SrcAddr: privAddr(a),
				Label: fmt.Sprintf("peer-t%d-t%d", a, b)},
			Invariant{Type: "reachability", Dst: priv(a), SrcAddr: privAddr(b),
				Label: fmt.Sprintf("peer-t%d-t%d", b, a)})
	}
	for i := 0; i < cfg.CrossChecks; i++ {
		a, b := i, i+1
		if _, peered := peerOf[a]; peered && peerOf[a] == b {
			continue // peered pairs are reachable by design
		}
		d.Invariants = append(d.Invariants,
			Invariant{Type: "flow_isolation", Dst: priv(b), SrcAddr: privAddr(a),
				Label: fmt.Sprintf("cross-t%d-t%d", a, b)})
	}
	return d
}

// tenantACL is tenant t's security-group rule set: the base VPC policy
// (anyone may initiate to the public half, the private half may initiate
// anywhere), shape-varying extra allowances (distinct trusted external
// ranges per shape — what makes shapes behaviourally distinct), and
// peering allowances when the tenant is peered.
func tenantACL(t, shape int, peerOf map[int]int,
	pubPrefix, privPrefix, tenantPrefix func(int) string) []ACLRule {
	acl := []ACLRule{
		{Action: "allow", Src: matchAll, Dst: pubPrefix(t)},
		{Action: "allow", Src: privPrefix(t), Dst: matchAll},
	}
	for j := 0; j < shape; j++ {
		acl = append(acl, ACLRule{Action: "allow",
			Src: fmt.Sprintf("9.%d.0.0/16", j+1), Dst: pubPrefix(t)})
	}
	if p, ok := peerOf[t]; ok {
		acl = append(acl, ACLRule{Action: "allow", Src: tenantPrefix(p), Dst: tenantPrefix(t)})
	}
	return acl
}
