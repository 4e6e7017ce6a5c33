package netdesc

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/mdl"
	"github.com/netverify/vmn/internal/pkt"
	vslices "github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// parsed is what one pass over a description yields, indexed like its
// nodes (node i becomes NodeID i): every address, prefix, ACL entry, box
// model, FIB rule and invariant, parsed once. Build assembles the
// network from it; Validate drops it.
type parsed struct {
	reg    *pkt.Registry
	addrs  []pkt.Addr   // hosts' and externals' addresses
	models []mbox.Model // middleboxes' models; nil for mdl boxes
	mdls   []mdlBox     // mdl boxes, in node order
	policy map[topo.NodeID]string
	links  [][2]topo.NodeID
	fib    tf.FIB
	invs   []inv.Invariant
}

// mdlBox is an mdl box whose config is converted but whose bundle, a
// file, is not read yet.
type mdlBox struct {
	node int
	cfg  mdl.Config
}

// parse is the one pass over a description: it checks everything the
// topo and mbox constructors would otherwise panic on and parses every
// field once. Errors carry file and a field path; the first error in
// field order wins, so one document always reports one field.
func (d *Desc) parse(file string) (*parsed, *Error) {
	if d.Format != Format {
		return nil, errf(file, "format", "unsupported format %q (want %q)", d.Format, Format)
	}
	if d.Name == "" {
		return nil, errf(file, "name", "description needs a name")
	}
	p := &parsed{reg: pkt.NewRegistry(), policy: map[topo.NodeID]string{}}
	for i, c := range d.Classes {
		switch _, dup := p.reg.Lookup(c); {
		case c == "":
			return nil, errf(file, fmt.Sprintf("classes[%d]", i), "empty class name")
		case dup:
			return nil, errf(file, fmt.Sprintf("classes[%d]", i), "duplicate class %q", c)
		case p.reg.Len() == pkt.MaxClasses:
			return nil, errf(file, fmt.Sprintf("classes[%d]", i), "more than %d classes", pkt.MaxClasses)
		}
		p.reg.Register(c)
	}

	n := len(d.Nodes)
	if n == 0 {
		return nil, errf(file, "nodes", "description has no nodes")
	}
	names := make(map[string]topo.NodeID, n)
	owner := make(map[pkt.Addr]int)
	p.addrs = make([]pkt.Addr, n)
	p.models = make([]mbox.Model, n)
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		if nd.Name == "" {
			return nil, errf(file, fmt.Sprintf("nodes[%d].name", i), "node needs a name")
		}
		if _, dup := names[nd.Name]; dup {
			return nil, errf(file, fmt.Sprintf("nodes[%d].name", i), "duplicate node name %q", nd.Name)
		}
		names[nd.Name] = topo.NodeID(i)
		switch nd.Kind {
		case "host", "external":
			if nd.Addr == "" {
				return nil, errf(file, fmt.Sprintf("nodes[%d].addr", i), "%s %q needs an address", nd.Kind, nd.Name)
			}
			a, err := pkt.ParseAddr(nd.Addr)
			if err != nil {
				return nil, errf(file, fmt.Sprintf("nodes[%d].addr", i), "%v", err)
			}
			if prev, dup := owner[a]; dup {
				return nil, errf(file, fmt.Sprintf("nodes[%d].addr", i), "address %s already owned by node %q", nd.Addr, d.Nodes[prev].Name)
			}
			owner[a] = i
			p.addrs[i] = a
			if nd.Box != nil {
				return nil, errf(file, fmt.Sprintf("nodes[%d].box", i), "%s %q cannot carry a box", nd.Kind, nd.Name)
			}
			if err := vslices.CheckClass(nd.Class); err != nil {
				return nil, errf(file, fmt.Sprintf("nodes[%d].class", i), "%v", err)
			}
			if nd.Class != "" {
				p.policy[topo.NodeID(i)] = nd.Class
			}
		case "switch", "middlebox":
			if nd.Addr != "" {
				return nil, errf(file, fmt.Sprintf("nodes[%d].addr", i), "%s %q cannot carry an address", nd.Kind, nd.Name)
			}
			if nd.Class != "" {
				return nil, errf(file, fmt.Sprintf("nodes[%d].class", i), "%s %q cannot carry a policy class", nd.Kind, nd.Name)
			}
			switch {
			case nd.Kind == "switch" && nd.Box != nil:
				return nil, errf(file, fmt.Sprintf("nodes[%d].box", i), "switch %q cannot carry a box", nd.Name)
			case nd.Kind == "middlebox" && nd.Box == nil:
				return nil, errf(file, fmt.Sprintf("nodes[%d].box", i), "middlebox %q needs a box configuration", nd.Name)
			case nd.Kind == "middlebox":
				model, cfg, err := parseBox(nd.Name, nd.Box, p.reg)
				if err != nil {
					err.File, err.Field = file, fmt.Sprintf("nodes[%d].box.%s", i, err.Field)
					return nil, err
				}
				if model == nil {
					p.mdls = append(p.mdls, mdlBox{node: i, cfg: cfg})
				}
				p.models[i] = model
			}
		default:
			return nil, errf(file, fmt.Sprintf("nodes[%d].kind", i), "unknown kind %q", nd.Kind)
		}
	}

	// Links: endpoints exist, no self-links, no duplicates (undirected).
	adj := make([][]topo.NodeID, n)
	p.links = make([][2]topo.NodeID, 0, len(d.Links))
	for i, l := range d.Links {
		var ends [2]topo.NodeID
		for k, end := range l {
			id, ok := names[end]
			if !ok {
				return nil, errf(file, fmt.Sprintf("links[%d]", i), "unknown node %q", end)
			}
			ends[k] = id
		}
		a, b := ends[0], ends[1]
		if a == b {
			return nil, errf(file, fmt.Sprintf("links[%d]", i), "self-link on %q", l[0])
		}
		// A hub has thousands of links and its far ends a few: scan the
		// shorter list.
		short, other := adj[a], b
		if len(adj[b]) < len(short) {
			short, other = adj[b], a
		}
		if slices.Contains(short, other) {
			return nil, errf(file, fmt.Sprintf("links[%d]", i), "duplicate link %s-%s", l[0], l[1])
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
		p.links = append(p.links, ends)
	}
	// Every node linked (when more than one), the graph connected.
	if n > 1 {
		for i := range adj {
			if len(adj[i]) == 0 {
				return nil, errf(file, fmt.Sprintf("nodes[%d]", i), "node %q has no links", d.Nodes[i].Name)
			}
		}
	}
	if reached := reachable(adj); reached != n {
		return nil, errf(file, "links", "topology is disconnected (%d of %d nodes reachable from %q)",
			reached, n, d.Nodes[0].Name)
	}

	// FIB: tables in node order; rule matches parse; ports are neighbors.
	// neighbor[v] == i+1 while node i's table is checked and v is linked
	// to node i.
	p.fib = make(tf.FIB, len(d.FIB))
	neighbor := make([]int, n)
	owners := 0
	for i := range d.Nodes {
		rules, ok := d.FIB[d.Nodes[i].Name]
		if !ok {
			continue
		}
		owners++
		for _, nb := range adj[i] {
			neighbor[nb] = i + 1
		}
		port := func(name string) (topo.NodeID, bool) {
			id, ok := names[name]
			return id, ok && neighbor[id] == i+1
		}
		out := make([]tf.Rule, 0, len(rules))
		for j, r := range rules {
			if r.Match == "" {
				return nil, errf(file, fmt.Sprintf("fib.%s[%d].match", d.Nodes[i].Name, j), "rule needs a match prefix (use \"*\" for match-all)")
			}
			match, err := ParsePrefix(r.Match)
			if err != nil {
				return nil, errf(file, fmt.Sprintf("fib.%s[%d].match", d.Nodes[i].Name, j), "%v", err)
			}
			in := topo.NodeNone
			if r.In != "" {
				if in, ok = port(r.In); !ok {
					return nil, errf(file, fmt.Sprintf("fib.%s[%d].in", d.Nodes[i].Name, j), "ingress %q is not a neighbor of %q", r.In, d.Nodes[i].Name)
				}
			}
			if r.Out == "" {
				return nil, errf(file, fmt.Sprintf("fib.%s[%d].out", d.Nodes[i].Name, j), "rule needs an egress")
			}
			egress, ok := port(r.Out)
			if !ok {
				return nil, errf(file, fmt.Sprintf("fib.%s[%d].out", d.Nodes[i].Name, j), "egress %q is not a neighbor of %q", r.Out, d.Nodes[i].Name)
			}
			out = append(out, tf.Rule{Match: match, In: in, Out: egress, Priority: r.Priority})
		}
		if len(out) > 0 {
			p.fib[topo.NodeID(i)] = out
		}
	}
	if owners < len(d.FIB) {
		var unknown []string
		for name := range d.FIB {
			if _, ok := names[name]; !ok {
				unknown = append(unknown, name)
			}
		}
		first := slices.Min(unknown)
		return nil, errf(file, "fib."+first, "unknown node %q", first)
	}

	// Invariants resolve through the codec the wire and the journal use.
	node := func(name string) (topo.NodeID, bool, bool) {
		id, ok := names[name]
		return id, ok && d.Nodes[id].Kind == "middlebox", ok
	}
	for i := range d.Invariants {
		iv, err := resolveInvariant(&d.Invariants[i], node)
		if err != nil {
			err.File, err.Field = file, fmt.Sprintf("invariants[%d].%s", i, err.Field)
			return nil, err
		}
		p.invs = append(p.invs, iv)
	}
	return p, nil
}

// reachable counts the nodes reachable from node 0.
func reachable(adj [][]topo.NodeID) int {
	seen := make([]bool, len(adj))
	seen[0] = true
	queue := []topo.NodeID{0}
	for k := 0; k < len(queue); k++ {
		for _, nb := range adj[queue[k]] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(queue)
}

// Build constructs the verifiable network and invariant set a description
// denotes. baseDir resolves relative MDL bundle references (use the
// description file's directory; "" means the working directory). It runs
// the one pass Validate runs and assembles what the pass yields, reading
// MDL bundles only once the description is known good, so Build never
// panics and never returns a half-built network: any error leaves
// nothing constructed.
func Build(d *Desc, baseDir string) (*core.Network, []inv.Invariant, error) {
	p, perr := d.parse("")
	if perr != nil {
		return nil, nil, perr
	}

	// Parsed classes are cached per path: many middleboxes typically
	// share one bundle.
	bundles := map[string]*mdl.Class{}
	for _, m := range p.mdls {
		f := fmt.Sprintf("nodes[%d].box", m.node)
		path := d.Nodes[m.node].Box.Bundle
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		cls, ok := bundles[path]
		if !ok {
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, nil, errf("", f+".bundle", "%v", err)
			}
			if cls, err = mdl.Parse(string(src)); err != nil {
				return nil, nil, &Error{File: path, Field: f + ".bundle", Msg: err.Error()}
			}
			bundles[path] = cls
		}
		model, err := mdl.Instantiate(cls, d.Nodes[m.node].Name, m.cfg, p.reg)
		if err != nil {
			return nil, nil, errf("", f, "%v", err)
		}
		p.models[m.node] = model
	}

	t := topo.New()
	var boxes []mbox.Instance
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		switch nd.Kind {
		case "host":
			t.AddHost(nd.Name, p.addrs[i])
		case "external":
			t.AddExternal(nd.Name, p.addrs[i])
		case "switch":
			t.AddSwitch(nd.Name)
		case "middlebox":
			id := t.AddMiddlebox(nd.Name, p.models[i].Type())
			boxes = append(boxes, mbox.Instance{Node: id, Model: p.models[i]})
		}
	}
	for _, l := range p.links {
		t.AddLink(l[0], l[1])
	}

	fib := p.fib
	net := &core.Network{
		Topo:        t,
		Boxes:       boxes,
		Registry:    p.reg,
		PolicyClass: p.policy,
		FIBFor:      func(topo.FailureScenario) tf.FIB { return fib },
	}
	return net, p.invs, nil
}

// BuildFile loads the description at path and builds it, resolving MDL
// bundles relative to the file. The file is checked once, by Build.
func BuildFile(path string) (*Desc, *core.Network, []inv.Invariant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, &Error{File: path, Msg: err.Error()}
	}
	d, err := decodeJSON(data, path)
	if err != nil {
		return nil, nil, nil, err
	}
	net, invs, err := Build(d, filepath.Dir(path))
	if err != nil {
		if de, ok := err.(*Error); ok && de.File == "" {
			de.File = path
		}
		return nil, nil, nil, err
	}
	return d, net, invs, nil
}

// boxFields lists which Box fields each type may set; parseBox rejects
// anything else so a typo'd field never silently drops a configuration.
var boxFields = map[string][]string{
	"firewall":     {"acl", "default_allow"},
	"cache":        {"acl", "default_serve"},
	"nat":          {"addr"},
	"idps":         {"scrubber", "watched"},
	"scrubber":     {},
	"loadbalancer": {"vip", "backends"},
	"appfirewall":  {"blocked"},
	"passthrough":  {"type_name"},
	"wanopt":       {},
	"mdl":          {"bundle", "config"},
}

// parseBox checks one box configuration and builds its model for the
// middlebox called name: the one box codec of description files, of the
// box_state change and of snapshotted box state, with ExportBox its
// inverse. An appfirewall may block only classes reg holds (a
// description's declared classes, a live network's registry). An mdl box
// yields no model but its converted config: its bundle is a file. Error
// fields are relative to the box.
func parseBox(name string, b *Box, reg *pkt.Registry) (mbox.Model, mdl.Config, *Error) {
	allowed, ok := boxFields[b.Type]
	if !ok {
		return nil, nil, errf("", "type", "unknown box type %q", b.Type)
	}
	for _, fld := range [...]struct {
		name string
		set  bool
	}{
		{"acl", len(b.ACL) > 0}, {"default_allow", b.DefaultAllow}, {"default_serve", b.DefaultServe},
		{"addr", b.Addr != ""}, {"scrubber", b.Scrubber != ""}, {"watched", len(b.Watched) > 0},
		{"vip", b.VIP != ""}, {"backends", len(b.Backends) > 0}, {"blocked", len(b.Blocked) > 0},
		{"type_name", b.TypeName != ""}, {"bundle", b.Bundle != ""}, {"config", len(b.Config) > 0},
	} {
		if fld.set && !slices.Contains(allowed, fld.name) {
			return nil, nil, errf("", fld.name, "field not applicable to box type %q", b.Type)
		}
	}
	addr := func(field, s string) (pkt.Addr, *Error) {
		a, err := pkt.ParseAddr(s)
		if err != nil {
			return 0, errf("", field, "%v", err)
		}
		return a, nil
	}
	switch b.Type {
	case "firewall", "cache":
		var acl []mbox.ACLEntry
		if len(b.ACL) > 0 {
			acl = make([]mbox.ACLEntry, len(b.ACL))
		}
		for i, e := range b.ACL {
			switch e.Action {
			case "allow":
				acl[i].Action = mbox.Allow
			case "deny":
				acl[i].Action = mbox.Deny
			default:
				return nil, nil, errf("", fmt.Sprintf("acl[%d].action", i), "unknown action %q", e.Action)
			}
			var err error
			if acl[i].Src, err = ParsePrefix(e.Src); err != nil {
				return nil, nil, errf("", fmt.Sprintf("acl[%d].src", i), "%v", err)
			}
			if acl[i].Dst, err = ParsePrefix(e.Dst); err != nil {
				return nil, nil, errf("", fmt.Sprintf("acl[%d].dst", i), "%v", err)
			}
		}
		if b.Type == "cache" {
			return &mbox.ContentCache{InstanceName: name, ACL: acl, DefaultServe: b.DefaultServe}, nil, nil
		}
		return &mbox.LearningFirewall{InstanceName: name, ACL: acl, DefaultAllow: b.DefaultAllow}, nil, nil
	case "nat":
		if b.Addr == "" {
			return nil, nil, errf("", "addr", "nat needs its public address")
		}
		a, err := addr("addr", b.Addr)
		if err != nil {
			return nil, nil, err
		}
		return mbox.NewNAT(name, a), nil, nil
	case "idps":
		var scrubber pkt.Addr
		if b.Scrubber != "" {
			var err *Error
			if scrubber, err = addr("scrubber", b.Scrubber); err != nil {
				return nil, nil, err
			}
		}
		var watched []pkt.Prefix
		for i, w := range b.Watched {
			p, err := ParsePrefix(w)
			if err != nil {
				return nil, nil, errf("", fmt.Sprintf("watched[%d]", i), "%v", err)
			}
			watched = append(watched, p)
		}
		return mbox.NewIDPS(name, reg, scrubber, watched...), nil, nil
	case "scrubber":
		return mbox.NewScrubber(name, reg), nil, nil
	case "loadbalancer":
		if b.VIP == "" {
			return nil, nil, errf("", "vip", "loadbalancer needs a vip")
		}
		vip, err := addr("vip", b.VIP)
		if err != nil {
			return nil, nil, err
		}
		if len(b.Backends) == 0 {
			return nil, nil, errf("", "backends", "loadbalancer needs at least one backend")
		}
		backends := make([]pkt.Addr, len(b.Backends))
		for i, be := range b.Backends {
			if backends[i], err = addr(fmt.Sprintf("backends[%d]", i), be); err != nil {
				return nil, nil, err
			}
		}
		return mbox.NewLoadBalancer(name, vip, backends...), nil, nil
	case "appfirewall":
		for i, c := range b.Blocked {
			if c == "" {
				return nil, nil, errf("", fmt.Sprintf("blocked[%d]", i), "empty class name")
			}
			if _, known := reg.Lookup(c); !known {
				return nil, nil, errf("", fmt.Sprintf("blocked[%d]", i), "unknown class %q", c)
			}
		}
		return mbox.NewAppFirewall(name, reg, b.Blocked...), nil, nil
	case "passthrough":
		if b.TypeName == "" {
			return nil, nil, errf("", "type_name", "passthrough needs a type_name")
		}
		return mbox.NewPassthrough(name, b.TypeName), nil, nil
	case "wanopt":
		return mbox.NewWANOptimizer(name), nil, nil
	}
	// mdl: the only type left.
	if b.Bundle == "" {
		return nil, nil, errf("", "bundle", "mdl box needs a bundle path")
	}
	cfg, err := mdlConfig(b.Config)
	if err != nil {
		return nil, nil, errf("", "config", "%v", err)
	}
	return nil, cfg, nil
}

// mdlConfig converts decoded JSON config values into the Go values
// mdl.Instantiate accepts: dotted-quad strings become addresses, integral
// numbers ints, and arrays sets (of addresses, address pairs, or raw
// string keys). Keys convert in sorted order, so a config with two bad
// values always reports the same one.
func mdlConfig(raw map[string]any) (mdl.Config, error) {
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cfg := mdl.Config{}
	for _, k := range keys {
		cv, err := configValue(raw[k])
		if err != nil {
			return nil, fmt.Errorf("%s: %v", k, err)
		}
		cfg[k] = cv
	}
	return cfg, nil
}

func configValue(v any) (any, error) {
	switch x := v.(type) {
	case string:
		if a, err := pkt.ParseAddr(x); err == nil {
			return a, nil
		}
		return nil, fmt.Errorf("string %q is not an address", x)
	case bool:
		return x, nil
	case float64:
		if x != float64(int(x)) {
			return nil, fmt.Errorf("non-integral number %v", x)
		}
		return int(x), nil
	case []any:
		return configSet(x)
	default:
		return nil, fmt.Errorf("unsupported config value of type %T", v)
	}
}

func configSet(xs []any) (any, error) {
	var addrs []pkt.Addr
	var pairs [][2]pkt.Addr
	var keys []string
	for _, e := range xs {
		switch x := e.(type) {
		case string:
			if a, err := pkt.ParseAddr(x); err == nil {
				addrs = append(addrs, a)
			} else {
				keys = append(keys, x)
			}
		case []any:
			if len(x) != 2 {
				return nil, fmt.Errorf("set tuple needs exactly 2 elements, got %d", len(x))
			}
			var pr [2]pkt.Addr
			for i, pe := range x {
				s, ok := pe.(string)
				if !ok {
					return nil, fmt.Errorf("set tuple element of type %T", pe)
				}
				a, err := pkt.ParseAddr(s)
				if err != nil {
					return nil, err
				}
				pr[i] = a
			}
			pairs = append(pairs, pr)
		default:
			return nil, fmt.Errorf("unsupported set element of type %T", e)
		}
	}
	switch {
	case len(pairs) > 0 && len(addrs)+len(keys) > 0, len(addrs) > 0 && len(keys) > 0:
		return nil, fmt.Errorf("mixed set element kinds")
	case len(pairs) > 0:
		return pairs, nil
	case len(keys) > 0:
		return keys, nil
	default:
		return addrs, nil
	}
}

// resolveInvariant validates one invariant and resolves its names: the
// only Invariant → inv.Invariant there is. The one pass runs it against
// the description's own node list, BuildInvariant against a built
// topology (the wire, the journal and snapshots). node reports a name's
// id and whether it is a middlebox; error fields are relative to the
// invariant.
func resolveInvariant(w *Invariant, node func(name string) (id topo.NodeID, middlebox, ok bool)) (inv.Invariant, *Error) {
	dst, _, ok := node(w.Dst)
	if !ok {
		return nil, errf("", "dst", "unknown node %q", w.Dst)
	}
	// The first malformed address; checked once the invariant is assembled.
	var bad *Error
	addr := func(field, s string) pkt.Addr {
		a, err := pkt.ParseAddr(s)
		if err != nil && bad == nil {
			bad = errf("", field, "%v", err)
		}
		return a
	}
	var iv inv.Invariant
	switch w.Type {
	case "simple_isolation":
		iv = inv.SimpleIsolation{Dst: dst, SrcAddr: addr("src_addr", w.SrcAddr), Label: w.Label}
	case "flow_isolation":
		iv = inv.FlowIsolation{Dst: dst, SrcAddr: addr("src_addr", w.SrcAddr), Label: w.Label}
	case "reachability":
		iv = inv.Reachability{Dst: dst, SrcAddr: addr("src_addr", w.SrcAddr), Label: w.Label}
	case "data_isolation":
		iv = inv.DataIsolation{Dst: dst, Origin: addr("origin", w.Origin), Label: w.Label}
	case "traversal":
		tr := inv.Traversal{Dst: dst, Label: w.Label}
		var err error
		if tr.SrcPrefix, err = ParsePrefix(w.SrcPrefix); err != nil {
			return nil, errf("", "src_prefix", "%v", err)
		}
		if w.SrcAddr != "" {
			tr.SrcAddr = addr("src_addr", w.SrcAddr)
		}
		if len(w.Vias) == 0 {
			return nil, errf("", "vias", "traversal needs at least one via")
		}
		for j, via := range w.Vias {
			id, middlebox, ok := node(via)
			if !ok {
				return nil, errf("", fmt.Sprintf("vias[%d]", j), "unknown node %q", via)
			}
			if !middlebox {
				return nil, errf("", fmt.Sprintf("vias[%d]", j), "via %q is not a middlebox", via)
			}
			tr.Vias = append(tr.Vias, id)
		}
		iv = tr
	default:
		return nil, errf("", "type", "unknown invariant type %q", w.Type)
	}
	if bad != nil {
		return nil, bad
	}
	return iv, nil
}

// BuildInvariant validates w against a built topology and resolves it;
// ExportInvariant is its inverse.
func BuildInvariant(t *topo.Topology, w *Invariant) (inv.Invariant, error) {
	iv, err := resolveInvariant(w, func(name string) (topo.NodeID, bool, bool) {
		n, ok := t.ByName(name)
		return n.ID, n.Kind == topo.Middlebox, ok
	})
	if err != nil {
		return nil, err
	}
	return iv, nil
}

// BuildBox validates one box configuration and builds its model for the
// middlebox called name in a live network: the codec of the box_state
// change and of snapshotted box state, with ExportBox its inverse. It
// leaves the network's class registry as it is (an appfirewall may block
// registered classes only, as in a description file) and refuses mdl
// boxes, whose bundles are files.
func BuildBox(name string, b *Box, reg *pkt.Registry) (mbox.Model, error) {
	model, _, err := parseBox(name, b, reg)
	if err != nil {
		err.Field = "box." + err.Field
		return nil, err
	}
	if model == nil {
		return nil, errf("", "box.type", "mdl boxes load from description files only")
	}
	return model, nil
}
