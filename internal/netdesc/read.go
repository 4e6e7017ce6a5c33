package netdesc

import "bytes"

// reader reads the canonical form of a description (what Encode writes,
// under any JSON whitespace) in one pass over its bytes, with no
// reflection. It takes only input that encoding/json with
// DisallowUnknownFields decodes to the same Desc, and declines the rest: a
// key that is not exactly a field's tag or that repeats, null, a string
// holding an escape, a control byte or a non-ASCII byte, a priority that
// is not a plain integer of at most nine digits, a link that is not two
// strings, a box config, trailing data and every syntax error. Declined
// input goes to encoding/json, which so decides every error.
type reader struct {
	data []byte
	pos  int
	ok   bool
}

// readCanonical returns the description in data, or false when the
// reader declines it.
func readCanonical(data []byte) (*Desc, bool) {
	r := reader{data: data, ok: true}
	d := new(Desc)
	descReads.read(&r, d)
	if r.ws(); !r.ok || r.pos != len(data) {
		return nil, false
	}
	return d, true
}

// fail declines the input; every later read fails at once.
func (r *reader) fail() { r.ok, r.pos = false, len(r.data) }

func (r *reader) ws() {
	for ; r.pos < len(r.data); r.pos++ {
		if c := r.data[r.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return
		}
	}
}

// next consumes c if it is the next byte past whitespace.
func (r *reader) next(c byte) bool {
	if r.ws(); r.pos < len(r.data) && r.data[r.pos] == c {
		r.pos++
		return true
	}
	return false
}

func (r *reader) expect(c byte) {
	if !r.next(c) {
		r.fail()
	}
}

// raw reads a string and returns its bytes, which are its value: it
// declines a string that holds an escape, a control or a non-ASCII byte.
func (r *reader) raw() []byte {
	r.expect('"')
	for start := r.pos; r.pos < len(r.data); r.pos++ {
		if c := r.data[r.pos]; c == '"' {
			r.pos++
			return r.data[start : r.pos-1]
		} else if c < 0x20 || c >= 0x80 || c == '\\' {
			break
		}
	}
	r.fail()
	return nil
}

func (r *reader) str(s *string) { *s = string(r.raw()) }

// integer reads an optional minus sign and one to nine digits with no
// leading zero; a fraction, an exponent or a tenth digit then fails the
// caller's next expect.
func (r *reader) integer(v *int) {
	r.ws()
	neg := r.pos < len(r.data) && r.data[r.pos] == '-'
	if neg {
		r.pos++
	}
	start, n := r.pos, 0
	for ; r.pos < len(r.data) && r.pos-start < 9 && '0' <= r.data[r.pos] && r.data[r.pos] <= '9'; r.pos++ {
		n = n*10 + int(r.data[r.pos]-'0')
	}
	if r.pos == start || (r.data[start] == '0' && r.pos-start > 1) {
		r.fail()
	}
	if neg {
		n = -n
	}
	*v = n
}

func (r *reader) boolean(b *bool) {
	if r.ws(); bytes.HasPrefix(r.data[r.pos:], []byte("true")) {
		*b, r.pos = true, r.pos+4
	} else if bytes.HasPrefix(r.data[r.pos:], []byte("false")) {
		*b, r.pos = false, r.pos+5
	} else {
		r.fail()
	}
}

// object reads an object, calling value with the reader at each key's
// value. A key repeated among an object's first 16 declines the input: a
// schema type has at most 13 tags, so a repeat among them shows there. The
// FIB, the one object with more keys, is a map: a later owner's table
// replaces an earlier one's there, as in encoding/json.
func (r *reader) object(value func(key []byte)) {
	r.expect('{')
	if r.next('}') {
		return
	}
	var seen [16][]byte
	for n := 0; r.ok; n++ {
		key := r.raw()
		for _, k := range seen[:min(n, len(seen))] {
			if bytes.Equal(k, key) {
				r.fail()
			}
		}
		if n < len(seen) {
			seen[n] = key
		}
		r.expect(':')
		value(key)
		if !r.next(',') {
			r.expect('}')
			return
		}
	}
}

// list reads an array into a slice that is not nil even when empty, as
// encoding/json does.
func list[T any](r *reader, read func(*reader, *T)) []T {
	s := []T{}
	r.expect('[')
	if r.next(']') {
		return s
	}
	for r.ok {
		s = append(s, *new(T))
		read(r, &s[len(s)-1])
		if !r.next(',') {
			r.expect(']')
			break
		}
	}
	return s
}

func (r *reader) link(l *[2]string) {
	r.expect('[')
	r.str(&l[0])
	r.expect(',')
	r.str(&l[1])
	r.expect(']')
}

// fieldReads maps each tag of a schema type to the read of its value.
type fieldReads[T any] map[string]func(*reader, *T)

// read reads an object of a schema type: every key must be one of its
// tags.
func (f fieldReads[T]) read(r *reader, v *T) {
	r.object(func(key []byte) {
		if set, ok := f[string(key)]; ok {
			set(r, v)
		} else {
			r.fail()
		}
	})
}

var descReads = fieldReads[Desc]{
	"format":  func(r *reader, d *Desc) { r.str(&d.Format) },
	"name":    func(r *reader, d *Desc) { r.str(&d.Name) },
	"comment": func(r *reader, d *Desc) { r.str(&d.Comment) },
	"classes": func(r *reader, d *Desc) { d.Classes = list(r, (*reader).str) },
	"nodes":   func(r *reader, d *Desc) { d.Nodes = list(r, nodeReads.read) },
	"links":   func(r *reader, d *Desc) { d.Links = list(r, (*reader).link) },
	"fib": func(r *reader, d *Desc) {
		d.FIB = map[string][]Rule{}
		r.object(func(owner []byte) { d.FIB[string(owner)] = list(r, ruleReads.read) })
	},
	"invariants": func(r *reader, d *Desc) { d.Invariants = list(r, invariantReads.read) },
}

var nodeReads = fieldReads[Node]{
	"name":  func(r *reader, n *Node) { r.str(&n.Name) },
	"kind":  func(r *reader, n *Node) { r.str(&n.Kind) },
	"addr":  func(r *reader, n *Node) { r.str(&n.Addr) },
	"class": func(r *reader, n *Node) { r.str(&n.Class) },
	"box":   func(r *reader, n *Node) { n.Box = new(Box); boxReads.read(r, n.Box) },
}

// boxReads has no "config": encoding/json types its values.
var boxReads = fieldReads[Box]{
	"type":          func(r *reader, b *Box) { r.str(&b.Type) },
	"acl":           func(r *reader, b *Box) { b.ACL = list(r, aclReads.read) },
	"default_allow": func(r *reader, b *Box) { r.boolean(&b.DefaultAllow) },
	"default_serve": func(r *reader, b *Box) { r.boolean(&b.DefaultServe) },
	"addr":          func(r *reader, b *Box) { r.str(&b.Addr) },
	"scrubber":      func(r *reader, b *Box) { r.str(&b.Scrubber) },
	"watched":       func(r *reader, b *Box) { b.Watched = list(r, (*reader).str) },
	"vip":           func(r *reader, b *Box) { r.str(&b.VIP) },
	"backends":      func(r *reader, b *Box) { b.Backends = list(r, (*reader).str) },
	"blocked":       func(r *reader, b *Box) { b.Blocked = list(r, (*reader).str) },
	"type_name":     func(r *reader, b *Box) { r.str(&b.TypeName) },
	"bundle":        func(r *reader, b *Box) { r.str(&b.Bundle) },
}

var aclReads = fieldReads[ACLRule]{
	"action": func(r *reader, a *ACLRule) { r.str(&a.Action) },
	"src":    func(r *reader, a *ACLRule) { r.str(&a.Src) },
	"dst":    func(r *reader, a *ACLRule) { r.str(&a.Dst) },
}

var ruleReads = fieldReads[Rule]{
	"match":    func(r *reader, f *Rule) { r.str(&f.Match) },
	"in":       func(r *reader, f *Rule) { r.str(&f.In) },
	"out":      func(r *reader, f *Rule) { r.str(&f.Out) },
	"priority": func(r *reader, f *Rule) { r.integer(&f.Priority) },
}

var invariantReads = fieldReads[Invariant]{
	"type":       func(r *reader, v *Invariant) { r.str(&v.Type) },
	"dst":        func(r *reader, v *Invariant) { r.str(&v.Dst) },
	"src_addr":   func(r *reader, v *Invariant) { r.str(&v.SrcAddr) },
	"origin":     func(r *reader, v *Invariant) { r.str(&v.Origin) },
	"src_prefix": func(r *reader, v *Invariant) { r.str(&v.SrcPrefix) },
	"vias":       func(r *reader, v *Invariant) { v.Vias = list(r, (*reader).str) },
	"label":      func(r *reader, v *Invariant) { r.str(&v.Label) },
}
