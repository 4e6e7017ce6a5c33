// Package netdesc is the on-disk network description frontend: a strict,
// versioned JSON format carrying everything core.Network needs — nodes,
// links, policy classes, middlebox configurations (including MDL bundle
// references), forwarding tables and the invariant set — plus a
// canonical serializer, so descriptions round-trip byte-identically, and
// generators for the cloud-scale evaluation scenarios (fat-trees, an ISP
// backbone, a multi-tenant cloud VPC).
//
// # Format
//
// A description is one JSON object whose "format" field names the schema
// version ("vmn-topology/1"). Decoding is strict: unknown fields,
// dangling name references, malformed addresses or prefixes, duplicate
// names or addresses, and inconsistent node/box combinations are all
// rejected with a structured *Error carrying file, line (for syntax
// errors) and field path — never a panic, and never a partially built
// network. The canonical form Encode writes is read without reflection,
// in one pass; any other input is decoded by encoding/json, which so
// decides every error.
//
//	{
//	  "format": "vmn-topology/1",
//	  "name": "example",
//	  "nodes": [
//	    {"name": "h0", "kind": "host", "addr": "10.0.0.1", "class": "tenant-a"},
//	    {"name": "sw", "kind": "switch"},
//	    {"name": "fw", "kind": "middlebox",
//	     "box": {"type": "firewall", "acl": [{"action": "allow", "src": "10.0.0.0/24", "dst": "*"}]}}
//	  ],
//	  "links": [["h0", "sw"], ["fw", "sw"]],
//	  "fib": {"sw": [{"match": "10.0.0.1/32", "in": "fw", "out": "h0", "priority": 20}]},
//	  "invariants": [
//	    {"type": "reachability", "dst": "h0", "src_addr": "10.0.1.1", "label": "reach"}
//	  ]
//	}
//
// Addresses are dotted quads; prefixes are CIDR ("0.0.0.0/0" for
// match-all, with "*" and a bare address accepted as input aliases for
// match-all and /32). Nodes are referenced by name everywhere (links,
// FIB in/out ports, invariant slots), matching the vmnd wire protocol.
//
// Box configurations mirror the native mbox models one to one; the "mdl"
// type instead references a paper-syntax model definition file ("bundle",
// resolved relative to the description file) plus its instantiation
// config, so user-defined middleboxes load from disk with no Go code.
package netdesc

import (
	"fmt"
)

// Format is the schema identifier every description must carry. The
// suffix is the major version: decoders reject formats they don't know,
// so breaking schema changes bump it.
const Format = "vmn-topology/1"

// Desc is the top-level description. Field order is the canonical
// serialization order.
type Desc struct {
	Format  string `json:"format"`
	Name    string `json:"name"`
	Comment string `json:"comment,omitempty"`
	// Classes pre-registers abstract packet classes (e.g. "malicious",
	// "attack") consulted by IDPS/scrubber/appfirewall boxes.
	Classes []string `json:"classes,omitempty"`
	Nodes   []Node   `json:"nodes"`
	// Links are unordered node-name pairs; the canonical form lists each
	// pair once, in first-appearance order of the description.
	Links [][2]string `json:"links"`
	// FIB maps a node name to its forwarding rules (any node may carry a
	// table; middleboxes forward through theirs after processing).
	FIB        map[string][]Rule `json:"fib"`
	Invariants []Invariant       `json:"invariants,omitempty"`
}

// Node is one topology node.
type Node struct {
	Name string `json:"name"`
	// Kind is host | switch | middlebox | external.
	Kind string `json:"kind"`
	// Addr is required for hosts and externals, forbidden otherwise.
	Addr string `json:"addr,omitempty"`
	// Class is the §4.1 policy equivalence class (hosts/externals only;
	// unlabeled nodes are singletons).
	Class string `json:"class,omitempty"`
	// Box is required for middleboxes, forbidden otherwise.
	Box *Box `json:"box,omitempty"`
}

// Box is a middlebox configuration. Type selects the model; the other
// fields are per-type (see the package comment).
type Box struct {
	Type string `json:"type"`
	// firewall: ACL + DefaultAllow. cache: ACL + DefaultServe.
	ACL          []ACLRule `json:"acl,omitempty"`
	DefaultAllow bool      `json:"default_allow,omitempty"`
	DefaultServe bool      `json:"default_serve,omitempty"`
	// nat: the public (rewrite) address.
	Addr string `json:"addr,omitempty"`
	// idps: scrubber service address (optional) + watched prefixes.
	Scrubber string   `json:"scrubber,omitempty"`
	Watched  []string `json:"watched,omitempty"`
	// loadbalancer: virtual IP + backend pool.
	VIP      string   `json:"vip,omitempty"`
	Backends []string `json:"backends,omitempty"`
	// appfirewall: blocked abstract classes.
	Blocked []string `json:"blocked,omitempty"`
	// passthrough: the display type name.
	TypeName string `json:"type_name,omitempty"`
	// mdl: model definition file (relative to the description file) and
	// instantiation config. Config values: dotted-quad strings become
	// addresses, integers stay integers, arrays become sets.
	Bundle string         `json:"bundle,omitempty"`
	Config map[string]any `json:"config,omitempty"`
}

// ACLRule is one firewall/cache ACL entry.
type ACLRule struct {
	Action string `json:"action"` // allow | deny
	Src    string `json:"src"`
	Dst    string `json:"dst"`
}

// Rule is one forwarding rule: packets to Match arriving from In (empty
// = any ingress) leave toward Out.
type Rule struct {
	Match    string `json:"match"`
	In       string `json:"in,omitempty"`
	Out      string `json:"out"`
	Priority int    `json:"priority"`
}

// Invariant is the one written form of an invariant — in description
// files, on the vmnd wire (incr.WireInvariant is this type), in the journal
// and in snapshots: type plus name/address slots.
type Invariant struct {
	Type      string   `json:"type"` // simple_isolation | flow_isolation | data_isolation | reachability | traversal
	Dst       string   `json:"dst"`
	SrcAddr   string   `json:"src_addr,omitempty"`
	Origin    string   `json:"origin,omitempty"`
	SrcPrefix string   `json:"src_prefix,omitempty"`
	Vias      []string `json:"vias,omitempty"`
	Label     string   `json:"label,omitempty"`
}

// Error is a structured description error: the file it came from, the
// 1-based line for syntax-level failures (0 when not applicable), and a
// field path for semantic ones (e.g. "nodes[3].addr").
type Error struct {
	File  string
	Line  int
	Field string
	Msg   string
}

// Error renders "file:line: field: msg" with empty parts elided.
func (e *Error) Error() string {
	s := ""
	if e.File != "" {
		s = e.File
		if e.Line > 0 {
			s += fmt.Sprintf(":%d", e.Line)
		}
		s += ": "
	}
	if e.Field != "" {
		s += e.Field + ": "
	}
	return s + e.Msg
}

func errf(file, field, format string, args ...any) *Error {
	return &Error{File: file, Field: field, Msg: fmt.Sprintf(format, args...)}
}
