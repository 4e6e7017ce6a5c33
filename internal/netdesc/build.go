package netdesc

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/mdl"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Build constructs the verifiable network and invariant set a description
// denotes. baseDir resolves relative MDL bundle references (use the
// description file's directory; "" means the working directory). The
// description is re-validated first, so Build never panics and never
// returns a half-built network: any error leaves nothing constructed.
func Build(d *Desc, baseDir string) (*core.Network, []inv.Invariant, error) {
	if err := d.Validate(""); err != nil {
		return nil, nil, err
	}

	reg := pkt.NewRegistry()
	for _, c := range d.Classes {
		reg.Register(c)
	}

	// MDL bundles load and parse before any topology state exists, so a
	// broken bundle aborts cleanly. Parsed classes are cached per path:
	// many middleboxes typically share one bundle.
	bundles := map[string]*mdl.Class{}
	for i := range d.Nodes {
		b := d.Nodes[i].Box
		if b == nil || b.Type != "mdl" {
			continue
		}
		path := b.Bundle
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		if _, ok := bundles[path]; ok {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, errf("", fmt.Sprintf("nodes[%d].box.bundle", i), "%v", err)
		}
		cls, err := mdl.Parse(string(src))
		if err != nil {
			return nil, nil, &Error{File: path, Field: fmt.Sprintf("nodes[%d].box.bundle", i), Msg: err.Error()}
		}
		bundles[path] = cls
	}

	t := topo.New()
	ids := make(map[string]topo.NodeID, len(d.Nodes))
	policy := map[topo.NodeID]string{}
	var boxes []mbox.Instance
	for i := range d.Nodes {
		n := &d.Nodes[i]
		switch n.Kind {
		case "host":
			id := t.AddHost(n.Name, pkt.MustParseAddr(n.Addr))
			ids[n.Name] = id
			if n.Class != "" {
				policy[id] = n.Class
			}
		case "external":
			id := t.AddExternal(n.Name, pkt.MustParseAddr(n.Addr))
			ids[n.Name] = id
			if n.Class != "" {
				policy[id] = n.Class
			}
		case "switch":
			ids[n.Name] = t.AddSwitch(n.Name)
		case "middlebox":
			model, err := buildModel(n.Name, n.Box, reg, bundles, baseDir, i)
			if err != nil {
				return nil, nil, err
			}
			id := t.AddMiddlebox(n.Name, model.Type())
			ids[n.Name] = id
			boxes = append(boxes, mbox.Instance{Node: id, Model: model})
		}
	}
	for _, l := range d.Links {
		t.AddLink(ids[l[0]], ids[l[1]])
	}

	fib := tf.FIB{}
	for node, rules := range d.FIB {
		id := ids[node]
		for _, r := range rules {
			match, _ := ParsePrefix(r.Match)
			in := topo.NodeNone
			if r.In != "" {
				in = ids[r.In]
			}
			fib.Add(id, tf.Rule{Match: match, In: in, Out: ids[r.Out], Priority: r.Priority})
		}
	}

	if err := t.Validate(); err != nil {
		return nil, nil, &Error{Msg: err.Error()}
	}

	var invs []inv.Invariant
	for i := range d.Invariants {
		iv, err := BuildInvariant(t, &d.Invariants[i])
		if err != nil {
			return nil, nil, err
		}
		invs = append(invs, iv)
	}

	net := &core.Network{
		Topo:        t,
		Boxes:       boxes,
		Registry:    reg,
		PolicyClass: policy,
		FIBFor:      func(topo.FailureScenario) tf.FIB { return fib },
	}
	return net, invs, nil
}

// BuildFile loads the description at path and builds it, resolving MDL
// bundles relative to the file.
func BuildFile(path string) (*Desc, *core.Network, []inv.Invariant, error) {
	d, err := Load(path)
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

func buildACL(acl []ACLRule) []mbox.ACLEntry {
	var out []mbox.ACLEntry
	for _, e := range acl {
		src, _ := ParsePrefix(e.Src)
		dst, _ := ParsePrefix(e.Dst)
		action := mbox.Allow
		if e.Action == "deny" {
			action = mbox.Deny
		}
		out = append(out, mbox.ACLEntry{Src: src, Dst: dst, Action: action})
	}
	return out
}

func buildModel(name string, b *Box, reg *pkt.Registry, bundles map[string]*mdl.Class, baseDir string, idx int) (mbox.Model, error) {
	switch b.Type {
	case "firewall":
		return &mbox.LearningFirewall{InstanceName: name, ACL: buildACL(b.ACL), DefaultAllow: b.DefaultAllow}, nil
	case "cache":
		return &mbox.ContentCache{InstanceName: name, ACL: buildACL(b.ACL), DefaultServe: b.DefaultServe}, nil
	case "nat":
		return mbox.NewNAT(name, pkt.MustParseAddr(b.Addr)), nil
	case "idps":
		var scrubber pkt.Addr
		if b.Scrubber != "" {
			scrubber = pkt.MustParseAddr(b.Scrubber)
		}
		var watched []pkt.Prefix
		for _, w := range b.Watched {
			p, _ := ParsePrefix(w)
			watched = append(watched, p)
		}
		return mbox.NewIDPS(name, reg, scrubber, watched...), nil
	case "scrubber":
		return mbox.NewScrubber(name, reg), nil
	case "loadbalancer":
		var backends []pkt.Addr
		for _, be := range b.Backends {
			backends = append(backends, pkt.MustParseAddr(be))
		}
		return mbox.NewLoadBalancer(name, pkt.MustParseAddr(b.VIP), backends...), nil
	case "appfirewall":
		return mbox.NewAppFirewall(name, reg, b.Blocked...), nil
	case "passthrough":
		return mbox.NewPassthrough(name, b.TypeName), nil
	case "wanopt":
		return mbox.NewWANOptimizer(name), nil
	case "mdl":
		path := b.Bundle
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		cfg, err := buildMDLConfig(b.Config)
		if err != nil {
			return nil, errf("", fmt.Sprintf("nodes[%d].box.config", idx), "%v", err)
		}
		model, err := mdl.Instantiate(bundles[path], name, cfg, reg)
		if err != nil {
			return nil, errf("", fmt.Sprintf("nodes[%d].box", idx), "%v", err)
		}
		return model, nil
	}
	// Unreachable: Validate rejected unknown types.
	return nil, errf("", fmt.Sprintf("nodes[%d].box.type", idx), "unknown box type %q", b.Type)
}

// buildMDLConfig converts decoded JSON config values into the Go values
// mdl.Instantiate accepts: dotted-quad strings become addresses, integral
// numbers ints, and arrays sets (of addresses, address pairs, or raw
// string keys).
func buildMDLConfig(raw map[string]any) (mdl.Config, error) {
	cfg := mdl.Config{}
	for k, v := range raw {
		cv, err := configValue(v)
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
	n := 0
	if len(addrs) > 0 {
		n++
	}
	if len(pairs) > 0 {
		n++
	}
	if len(keys) > 0 {
		n++
	}
	if n > 1 {
		return nil, fmt.Errorf("mixed set element kinds")
	}
	switch {
	case len(pairs) > 0:
		return pairs, nil
	case len(keys) > 0:
		return keys, nil
	default:
		return addrs, nil
	}
}

// resolveInvariant validates one invariant and resolves its names: the
// only Invariant → inv.Invariant there is. Validate runs it against the
// description's own node list, BuildInvariant against a built topology
// (the wire, the journal and snapshots). node reports a name's id and
// whether it is a middlebox; error fields are relative to the invariant.
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
// registered classes only) and refuses mdl boxes, whose bundles are files.
func BuildBox(name string, b *Box, reg *pkt.Registry) (mbox.Model, error) {
	if err := validateBox(b, "", "box"); err != nil {
		return nil, err
	}
	if b.Type == "mdl" {
		return nil, errf("", "box.type", "mdl boxes load from description files only")
	}
	for i, c := range b.Blocked {
		if _, known := reg.Lookup(c); !known {
			return nil, errf("", fmt.Sprintf("box.blocked[%d]", i), "unknown class %q", c)
		}
	}
	return buildModel(name, b, reg, nil, "", 0)
}
