package netdesc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// Load reads and decodes the description at path. Errors are *Error
// carrying the path (and line/field where recoverable).
func Load(path string) (*Desc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &Error{File: path, Msg: err.Error()}
	}
	return Decode(data, path)
}

// Decode parses and validates a description. file is used only for error
// reporting (may be empty). Decoding is strict — unknown fields, type
// mismatches, trailing data and every semantic inconsistency are
// rejected — and never panics, whatever the input.
func Decode(data []byte, file string) (*Desc, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d Desc
	if err := dec.Decode(&d); err != nil {
		return nil, decodeError(data, file, err)
	}
	// A description is exactly one JSON value.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &Error{File: file, Msg: "trailing data after description"}
	}
	if err := d.Validate(file); err != nil {
		return nil, err
	}
	return &d, nil
}

// decodeError converts an encoding/json error into a *Error, recovering
// the line number from the byte offset where the library reports one.
func decodeError(data []byte, file string, err error) *Error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return &Error{File: file, Line: lineAt(data, syn.Offset), Msg: syn.Error()}
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return &Error{File: file, Line: lineAt(data, typ.Offset), Field: typ.Field,
			Msg: fmt.Sprintf("cannot decode %s into %s", typ.Value, typ.Type)}
	}
	// DisallowUnknownFields reports a plain error of the form
	// `json: unknown field "frobnicate"`; surface the field name.
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		field := strings.Trim(strings.TrimPrefix(msg, "json: unknown field "), "\"")
		return &Error{File: file, Field: field, Msg: "unknown field"}
	}
	return &Error{File: file, Msg: err.Error()}
}

func lineAt(data []byte, offset int64) int {
	if offset < 0 || offset > int64(len(data)) {
		return 0
	}
	return 1 + bytes.Count(data[:offset], []byte{'\n'})
}

// Kinds and box types the format accepts.
var (
	nodeKinds = map[string]bool{"host": true, "switch": true, "middlebox": true, "external": true}
	boxTypes  = map[string]bool{
		"firewall": true, "cache": true, "nat": true, "idps": true, "scrubber": true,
		"loadbalancer": true, "appfirewall": true, "passthrough": true, "wanopt": true,
		"mdl": true,
	}
)

// Validate checks the full semantic well-formedness of a description:
// everything Build relies on to construct a network without panicking.
// file is used only for error reporting. A valid description always
// builds.
func (d *Desc) Validate(file string) error {
	if d.Format != Format {
		return errf(file, "format", "unsupported format %q (want %q)", d.Format, Format)
	}
	if d.Name == "" {
		return errf(file, "name", "description needs a name")
	}
	seenClass := map[string]bool{}
	for i, c := range d.Classes {
		f := fmt.Sprintf("classes[%d]", i)
		if c == "" {
			return errf(file, f, "empty class name")
		}
		if seenClass[c] {
			return errf(file, f, "duplicate class %q", c)
		}
		seenClass[c] = true
	}

	if len(d.Nodes) == 0 {
		return errf(file, "nodes", "description has no nodes")
	}
	names := map[string]int{} // name -> node index
	addrs := map[string]string{}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		f := fmt.Sprintf("nodes[%d]", i)
		if n.Name == "" {
			return errf(file, f+".name", "node needs a name")
		}
		if _, dup := names[n.Name]; dup {
			return errf(file, f+".name", "duplicate node name %q", n.Name)
		}
		names[n.Name] = i
		if !nodeKinds[n.Kind] {
			return errf(file, f+".kind", "unknown kind %q", n.Kind)
		}
		switch n.Kind {
		case "host", "external":
			if n.Addr == "" {
				return errf(file, f+".addr", "%s %q needs an address", n.Kind, n.Name)
			}
			if _, err := pkt.ParseAddr(n.Addr); err != nil {
				return errf(file, f+".addr", "%v", err)
			}
			if prev, dup := addrs[n.Addr]; dup {
				return errf(file, f+".addr", "address %s already owned by node %q", n.Addr, prev)
			}
			addrs[n.Addr] = n.Name
			if n.Box != nil {
				return errf(file, f+".box", "%s %q cannot carry a box", n.Kind, n.Name)
			}
		case "switch", "middlebox":
			if n.Addr != "" {
				return errf(file, f+".addr", "%s %q cannot carry an address", n.Kind, n.Name)
			}
			if n.Class != "" {
				return errf(file, f+".class", "%s %q cannot carry a policy class", n.Kind, n.Name)
			}
			if n.Kind == "middlebox" {
				if n.Box == nil {
					return errf(file, f+".box", "middlebox %q needs a box configuration", n.Name)
				}
				if err := validateBox(n.Box, file, f+".box"); err != nil {
					return err
				}
			} else if n.Box != nil {
				return errf(file, f+".box", "switch %q cannot carry a box", n.Name)
			}
		}
	}

	// Links: endpoints exist, no self-links, no duplicates (undirected).
	adj := make(map[string][]string, len(d.Nodes))
	linkSeen := map[[2]string]bool{}
	for i, l := range d.Links {
		f := fmt.Sprintf("links[%d]", i)
		for _, end := range l {
			if _, ok := names[end]; !ok {
				return errf(file, f, "unknown node %q", end)
			}
		}
		if l[0] == l[1] {
			return errf(file, f, "self-link on %q", l[0])
		}
		key := l
		if key[1] < key[0] {
			key[0], key[1] = key[1], key[0]
		}
		if linkSeen[key] {
			return errf(file, f, "duplicate link %s-%s", l[0], l[1])
		}
		linkSeen[key] = true
		adj[l[0]] = append(adj[l[0]], l[1])
		adj[l[1]] = append(adj[l[1]], l[0])
	}
	// Structural checks topo.Validate would fail on after building: every
	// node linked (when more than one), graph connected.
	if len(d.Nodes) > 1 {
		for i := range d.Nodes {
			if len(adj[d.Nodes[i].Name]) == 0 {
				return errf(file, fmt.Sprintf("nodes[%d]", i), "node %q has no links", d.Nodes[i].Name)
			}
		}
	}
	if reached := reachableFrom(d.Nodes[0].Name, adj); reached != len(d.Nodes) {
		return errf(file, "links", "topology is disconnected (%d of %d nodes reachable from %q)",
			reached, len(d.Nodes), d.Nodes[0].Name)
	}

	// FIB: table owners exist; rule matches parse; ports are neighbors.
	for node, rules := range d.FIB {
		if _, ok := names[node]; !ok {
			return errf(file, "fib."+node, "unknown node %q", node)
		}
		neighbors := map[string]bool{}
		for _, nb := range adj[node] {
			neighbors[nb] = true
		}
		for i, r := range rules {
			f := fmt.Sprintf("fib.%s[%d]", node, i)
			if r.Match == "" {
				return errf(file, f+".match", "rule needs a match prefix (use \"*\" for match-all)")
			}
			if _, err := ParsePrefix(r.Match); err != nil {
				return errf(file, f+".match", "%v", err)
			}
			if r.In != "" && !neighbors[r.In] {
				return errf(file, f+".in", "ingress %q is not a neighbor of %q", r.In, node)
			}
			if r.Out == "" {
				return errf(file, f+".out", "rule needs an egress")
			}
			if !neighbors[r.Out] {
				return errf(file, f+".out", "egress %q is not a neighbor of %q", r.Out, node)
			}
		}
	}

	// Invariants resolve through the codec the wire and the journal use;
	// node i of the description becomes NodeID i when built.
	node := func(name string) (topo.NodeID, bool, bool) {
		i, ok := names[name]
		return topo.NodeID(i), ok && d.Nodes[i].Kind == "middlebox", ok
	}
	for i := range d.Invariants {
		if _, err := resolveInvariant(&d.Invariants[i], node); err != nil {
			err.File, err.Field = file, fmt.Sprintf("invariants[%d].%s", i, err.Field)
			return err
		}
	}
	return nil
}

func reachableFrom(start string, adj map[string][]string) int {
	seen := map[string]bool{start: true}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen)
}

// boxFields lists which Box fields each type may set; validateBox rejects
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

func setBoxFields(b *Box) map[string]bool {
	set := map[string]bool{}
	if len(b.ACL) > 0 {
		set["acl"] = true
	}
	if b.DefaultAllow {
		set["default_allow"] = true
	}
	if b.DefaultServe {
		set["default_serve"] = true
	}
	if b.Addr != "" {
		set["addr"] = true
	}
	if b.Scrubber != "" {
		set["scrubber"] = true
	}
	if len(b.Watched) > 0 {
		set["watched"] = true
	}
	if b.VIP != "" {
		set["vip"] = true
	}
	if len(b.Backends) > 0 {
		set["backends"] = true
	}
	if len(b.Blocked) > 0 {
		set["blocked"] = true
	}
	if b.TypeName != "" {
		set["type_name"] = true
	}
	if b.Bundle != "" {
		set["bundle"] = true
	}
	if len(b.Config) > 0 {
		set["config"] = true
	}
	return set
}

func validateBox(b *Box, file, f string) error {
	if !boxTypes[b.Type] {
		return errf(file, f+".type", "unknown box type %q", b.Type)
	}
	set := setBoxFields(b)
	allowed := map[string]bool{}
	for _, fld := range boxFields[b.Type] {
		allowed[fld] = true
	}
	for fld := range set {
		if !allowed[fld] {
			return errf(file, f+"."+fld, "field not applicable to box type %q", b.Type)
		}
	}
	for i, e := range b.ACL {
		ef := fmt.Sprintf("%s.acl[%d]", f, i)
		if e.Action != "allow" && e.Action != "deny" {
			return errf(file, ef+".action", "unknown action %q", e.Action)
		}
		if _, err := ParsePrefix(e.Src); err != nil {
			return errf(file, ef+".src", "%v", err)
		}
		if _, err := ParsePrefix(e.Dst); err != nil {
			return errf(file, ef+".dst", "%v", err)
		}
	}
	switch b.Type {
	case "nat":
		if b.Addr == "" {
			return errf(file, f+".addr", "nat needs its public address")
		}
		if _, err := pkt.ParseAddr(b.Addr); err != nil {
			return errf(file, f+".addr", "%v", err)
		}
	case "idps":
		if b.Scrubber != "" {
			if _, err := pkt.ParseAddr(b.Scrubber); err != nil {
				return errf(file, f+".scrubber", "%v", err)
			}
		}
		for i, w := range b.Watched {
			if _, err := ParsePrefix(w); err != nil {
				return errf(file, fmt.Sprintf("%s.watched[%d]", f, i), "%v", err)
			}
		}
	case "loadbalancer":
		if b.VIP == "" {
			return errf(file, f+".vip", "loadbalancer needs a vip")
		}
		if _, err := pkt.ParseAddr(b.VIP); err != nil {
			return errf(file, f+".vip", "%v", err)
		}
		if len(b.Backends) == 0 {
			return errf(file, f+".backends", "loadbalancer needs at least one backend")
		}
		for i, be := range b.Backends {
			if _, err := pkt.ParseAddr(be); err != nil {
				return errf(file, fmt.Sprintf("%s.backends[%d]", f, i), "%v", err)
			}
		}
	case "appfirewall":
		for i, c := range b.Blocked {
			if c == "" {
				return errf(file, fmt.Sprintf("%s.blocked[%d]", f, i), "empty class name")
			}
		}
	case "passthrough":
		if b.TypeName == "" {
			return errf(file, f+".type_name", "passthrough needs a type_name")
		}
	case "mdl":
		if b.Bundle == "" {
			return errf(file, f+".bundle", "mdl box needs a bundle path")
		}
	}
	return nil
}

// ParsePrefix parses the format's prefix syntax: "*" (or any "/0") is
// match-all, a bare address is /32, otherwise CIDR. The result is
// canonical — host bits masked off, one match-all value — so two
// spellings of one prefix are one ACL key, one coalescing key and one
// fingerprint.
func ParsePrefix(s string) (pkt.Prefix, error) {
	if s == "" || s == "*" {
		return pkt.Prefix{}, nil
	}
	addrStr, lenStr, ok := strings.Cut(s, "/")
	a, err := pkt.ParseAddr(addrStr)
	if err != nil {
		return pkt.Prefix{}, err
	}
	if !ok {
		return pkt.HostPrefix(a), nil
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 || n > 32 {
		return pkt.Prefix{}, fmt.Errorf("malformed prefix length in %q", s)
	}
	if n == 0 {
		return pkt.Prefix{}, nil
	}
	return pkt.Prefix{Addr: a &^ (1<<(32-n) - 1), Len: n}, nil
}

// FormatPrefix renders a prefix in the canonical on-disk form ParsePrefix
// accepts: "*" for match-all, a bare address for /32, CIDR otherwise.
func FormatPrefix(p pkt.Prefix) string {
	if p.Len <= 0 {
		return "*"
	}
	if p.Len >= 32 {
		return p.Addr.String()
	}
	return p.String()
}
