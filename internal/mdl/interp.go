package mdl

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
)

// Config supplies values for a class's configuration parameters.
// Accepted Go values: pkt.Addr (Address), int (int/port), and for Set
// parameters: []pkt.Addr, [][2]pkt.Addr or []string (pre-rendered keys).
type Config map[string]any

// Instantiate binds a parsed class to configuration and a class registry,
// producing a middlebox model interchangeable with the native ones.
func Instantiate(cls *Class, instanceName string, cfg Config, reg *pkt.Registry) (*Interpreted, error) {
	m := &Interpreted{
		cls:     cls,
		name:    instanceName,
		reg:     reg,
		scalars: map[string]value{},
		sets:    map[string]map[string]bool{},
		typed:   map[string][][]pkt.Addr{},
	}
	// The class body is part of the configuration key. Every AST node type
	// has a distinct set of field names, so the JSON rendering is injective.
	ast, err := json.Marshal(cls)
	if err != nil {
		return nil, fmt.Errorf("mdl: %s: %v", cls.Name, err)
	}
	m.digest = sha256.Sum256(ast)
	for _, p := range cls.Params {
		raw, ok := cfg[p.Name]
		if !ok {
			return nil, fmt.Errorf("mdl: %s: missing config parameter %q", cls.Name, p.Name)
		}
		if p.Type.IsSet() {
			set, typed, err := toKeySet(raw)
			if err != nil {
				return nil, fmt.Errorf("mdl: %s: parameter %q: %v", cls.Name, p.Name, err)
			}
			m.sets[p.Name] = set
			if typed != nil {
				m.typed[p.Name] = typed
			}
			for _, e := range typed {
				m.addrs = append(m.addrs, e...)
			}
			continue
		}
		v, err := toValue(raw)
		if err != nil {
			return nil, fmt.Errorf("mdl: %s: parameter %q: %v", cls.Name, p.Name, err)
		}
		m.scalars[p.Name] = v
		if a, ok := v.(pkt.Addr); ok {
			m.addrs = append(m.addrs, a)
		}
	}
	sort.Slice(m.addrs, func(i, j int) bool { return m.addrs[i] < m.addrs[j] })
	m.failMode = deriveFailMode(cls)
	m.discipline = deriveDiscipline(cls)
	// Pre-register the class predicates the model consults, within the
	// registry's pkt.MaxClasses.
	if reg != nil {
		preds, fresh := collectClassPredicates(cls), 0
		for _, name := range preds {
			if _, ok := reg.Lookup(name); !ok {
				fresh++
			}
		}
		if reg.Len()+fresh > pkt.MaxClasses {
			return nil, fmt.Errorf("mdl: %s: more than %d abstract classes", cls.Name, pkt.MaxClasses)
		}
		for _, name := range preds {
			reg.Register(name)
		}
	}
	return m, nil
}

// MustInstantiate panics on error; for tables and tests.
func MustInstantiate(cls *Class, instanceName string, cfg Config, reg *pkt.Registry) *Interpreted {
	m, err := Instantiate(cls, instanceName, cfg, reg)
	if err != nil {
		panic(err)
	}
	return m
}

// Interpreted is an mbox.Model executing a parsed MDL class.
type Interpreted struct {
	cls     *Class
	name    string
	reg     *pkt.Registry
	scalars map[string]value
	sets    map[string]map[string]bool
	// typed holds, beside the rendered keys in sets, the elements of every
	// set parameter supplied as addresses or address pairs, duplicate-free:
	// the form the configuration keys are written from. addrs is every
	// configured address, scalar or set element, sorted.
	typed      map[string][][]pkt.Addr
	addrs      []pkt.Addr
	digest     [sha256.Size]byte // of the class AST
	failMode   mbox.FailMode
	discipline mbox.Discipline
}

var _ mbox.Model = (*Interpreted)(nil)

// Type implements mbox.Model: the class name, lowercased.
func (m *Interpreted) Type() string { return strings.ToLower(m.cls.Name) }

// FailMode implements mbox.Model.
func (m *Interpreted) FailMode() mbox.FailMode { return m.failMode }

// Discipline implements mbox.Model.
func (m *Interpreted) Discipline() mbox.Discipline { return m.discipline }

// RelevantClasses implements mbox.Model: the class predicates appearing in
// the model body.
func (m *Interpreted) RelevantClasses(reg *pkt.Registry) pkt.ClassSet {
	var set pkt.ClassSet
	for _, name := range collectClassPredicates(m.cls) {
		if c, ok := reg.Lookup(name); ok {
			set = set.With(c)
		}
	}
	return set
}

// DescribeConfig implements mbox.ConfigDescriber mechanically from the
// declared parameter list: the class (name and AST digest), then each
// parameter in declaration order. MDL compares addresses only with ==, !=
// and contains and has no address literals, so writing every configured
// address through w.Addr makes the canonical key sound under renaming. A
// set supplied as pre-rendered string keys has no renamable form and is
// written opaquely: exact keys only, no canonical classing. Set elements
// are not projected onto the universe — the read key is the exact key.
func (m *Interpreted) DescribeConfig(w mbox.KeyWriter) {
	w.Byte('M')
	mbox.PutString(w, m.cls.Name)
	mbox.PutString(w, string(m.digest[:]))
	for _, p := range m.cls.Params {
		if elems, ok := m.typed[p.Name]; ok {
			w.Byte('s')
			w.Set(len(elems), func(i int) {
				w.Uint(uint64(len(elems[i])))
				for _, a := range elems[i] {
					w.Addr(a)
				}
			})
			continue
		}
		switch v := m.scalars[p.Name].(type) {
		case pkt.Addr:
			w.Byte('a')
			w.Addr(v)
		case nil: // a set of string keys
			keys := make([]string, 0, len(m.sets[p.Name]))
			for k := range m.sets[p.Name] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			w.Byte('o')
			w.Opaque([]byte(fmt.Sprintf("%q", keys)))
		default: // ints and booleans
			w.Byte('v')
			mbox.PutString(w, keyOf(v))
		}
	}
}

// ServiceAddrs reports every configured address, sorted. A scalar one may
// be written into packets (Listing 2's NAT address), so it belongs to the
// slice's address universe; set elements are there so that canonical
// numbering meets them in an order that does not depend on how the set was
// supplied, before the configuration is described.
func (m *Interpreted) ServiceAddrs() []pkt.Addr { return m.addrs }

func deriveFailMode(cls *Class) mbox.FailMode {
	for _, a := range cls.Annotations {
		switch a {
		case "FailClosed":
			return mbox.FailClosed
		case "FailOpen":
			return mbox.FailOpen
		}
	}
	if referencesFail(cls) {
		return mbox.FailExplicit
	}
	return mbox.FailClosed
}

func deriveDiscipline(cls *Class) mbox.Discipline {
	for _, a := range cls.Annotations {
		switch a {
		case "FlowParallel":
			return mbox.FlowParallel
		case "OriginAgnostic":
			return mbox.OriginAgnostic
		case "General":
			return mbox.General
		}
	}
	return mbox.FlowParallel
}

// istate is the interpreter's middlebox state: named sets and maps plus
// freshness counters for abstract functions.
type istate struct {
	sets     map[string]map[string]bool
	maps     map[string]map[string]value
	counters map[string]int
}

// Key implements mbox.State with a canonical rendering.
func (s *istate) Key() string {
	var b strings.Builder
	writeSorted := func(prefix string, items []string) {
		sort.Strings(items)
		b.WriteString(prefix)
		b.WriteString("{")
		b.WriteString(strings.Join(items, ","))
		b.WriteString("}")
	}
	var setNames []string
	for n := range s.sets {
		setNames = append(setNames, n)
	}
	sort.Strings(setNames)
	for _, n := range setNames {
		var items []string
		for k := range s.sets[n] {
			items = append(items, k)
		}
		writeSorted(n, items)
	}
	var mapNames []string
	for n := range s.maps {
		mapNames = append(mapNames, n)
	}
	sort.Strings(mapNames)
	for _, n := range mapNames {
		var items []string
		for k, v := range s.maps[n] {
			items = append(items, k+"="+keyOf(v))
		}
		writeSorted(n, items)
	}
	var ctrNames []string
	for n := range s.counters {
		ctrNames = append(ctrNames, n)
	}
	sort.Strings(ctrNames)
	for _, n := range ctrNames {
		fmt.Fprintf(&b, "%s=%d", n, s.counters[n])
	}
	return b.String()
}

// AppendKey implements mbox.State. Interpreted states are generic
// map-of-maps structures, so the fingerprint reuses the canonical Key
// rendering rather than a bespoke binary layout.
func (s *istate) AppendKey(b []byte) []byte { return append(b, s.Key()...) }

// Clone implements mbox.State.
func (s *istate) Clone() mbox.State {
	c := &istate{
		sets:     make(map[string]map[string]bool, len(s.sets)),
		maps:     make(map[string]map[string]value, len(s.maps)),
		counters: make(map[string]int, len(s.counters)),
	}
	for n, set := range s.sets {
		cs := make(map[string]bool, len(set))
		for k := range set {
			cs[k] = true
		}
		c.sets[n] = cs
	}
	for n, mp := range s.maps {
		cm := make(map[string]value, len(mp))
		for k, v := range mp {
			cm[k] = v
		}
		c.maps[n] = cm
	}
	for n, v := range s.counters {
		c.counters[n] = v
	}
	return c
}

// InitState implements mbox.Model.
func (m *Interpreted) InitState() mbox.State {
	s := &istate{sets: map[string]map[string]bool{}, maps: map[string]map[string]value{}, counters: map[string]int{}}
	for _, sv := range m.cls.State {
		if sv.Type.IsSet() {
			s.sets[sv.Name] = map[string]bool{}
		} else if sv.Type.IsMap() {
			s.maps[sv.Name] = map[string]value{}
		}
	}
	return s
}

// Process implements mbox.Model by running the first matching clause.
func (m *Interpreted) Process(st mbox.State, in mbox.Input) []mbox.Branch {
	cur, ok := st.(*istate)
	if !ok {
		panic(fmt.Sprintf("mdl: %s received state of type %T", m.name, st))
	}
	next := cur.Clone().(*istate)
	env := &env{m: m, st: next, hdr: in.Hdr, orig: in.Hdr, classes: in.Classes, failed: in.Failed, locals: map[string]value{}}
	for _, cl := range m.cls.Clauses {
		match := cl.Wildcard
		if !match {
			v, err := env.eval(cl.Cond)
			if err != nil {
				if errors.Is(err, errNoValue) {
					continue // missing map entry in a guard: guard is false
				}
				panic(fmt.Sprintf("mdl: %s: %v", m.name, err))
			}
			b, ok := v.(bool)
			if !ok {
				panic(fmt.Sprintf("mdl: %s: guard is not boolean", m.name))
			}
			match = b
		}
		if !match {
			continue
		}
		for _, stmt := range cl.Body {
			if err := env.exec(stmt); err != nil {
				if errors.Is(err, errNoValue) {
					// A body lookup missed (e.g. reverse table has no
					// mapping): the packet is dropped, state unchanged —
					// matching the native models' behaviour.
					return []mbox.Branch{{Label: "novalue-drop", Next: cur}}
				}
				panic(fmt.Sprintf("mdl: %s: %v", m.name, err))
			}
		}
		outs := make([]mbox.Output, len(env.outputs))
		for i, h := range env.outputs {
			outs[i] = mbox.Output{Hdr: h, Classes: in.Classes}
		}
		return []mbox.Branch{{Label: "mdl", Out: outs, Next: env.st}}
	}
	// No clause matched: drop, state unchanged.
	return []mbox.Branch{{Label: "nomatch", Next: cur}}
}

// value is the interpreter's dynamic value: pkt.Addr, int, bool, pkt.Flow
// or tuple.
type value interface{}

type tuple []value

func toValue(raw any) (value, error) {
	switch v := raw.(type) {
	case pkt.Addr:
		return v, nil
	case int:
		return v, nil
	case pkt.Port:
		return int(v), nil
	case bool:
		return v, nil
	default:
		return nil, fmt.Errorf("unsupported config value of type %T", raw)
	}
}

// toKeySet renders a set parameter as interpreter keys; typed is the same
// set as address tuples, nil when the keys came pre-rendered.
func toKeySet(raw any) (out map[string]bool, typed [][]pkt.Addr, err error) {
	out = map[string]bool{}
	add := func(v value, elem ...pkt.Addr) {
		if k := keyOf(v); !out[k] {
			out[k] = true
			typed = append(typed, elem)
		}
	}
	switch v := raw.(type) {
	case []pkt.Addr:
		typed = [][]pkt.Addr{}
		for _, a := range v {
			add(a, a)
		}
	case [][2]pkt.Addr:
		typed = [][]pkt.Addr{}
		for _, pr := range v {
			add(tuple{pr[0], pr[1]}, pr[0], pr[1])
		}
	case []string:
		for _, s := range v {
			out[s] = true
		}
	default:
		return nil, nil, fmt.Errorf("unsupported set config of type %T", raw)
	}
	return out, typed, nil
}

// keyOf renders a value canonically for set/map keys.
func keyOf(v value) string {
	switch x := v.(type) {
	case pkt.Addr:
		return x.String()
	case int:
		return fmt.Sprintf("%d", x)
	case bool:
		return fmt.Sprintf("%t", x)
	case pkt.Flow:
		return x.Canonical().String()
	case tuple:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = keyOf(e)
		}
		return "(" + strings.Join(parts, ",") + ")"
	default:
		return fmt.Sprintf("%v", v)
	}
}

func valueEq(a, b value) bool { return keyOf(a) == keyOf(b) }

// env is one Process invocation's evaluation context.
type env struct {
	m       *Interpreted
	st      *istate
	hdr     pkt.Header
	orig    pkt.Header // header as received; flow(p) is keyed on this
	classes pkt.ClassSet
	failed  bool
	locals  map[string]value
	outputs []pkt.Header
}

// packetMarker is the value of the model function's packet variable.
type packetMarker struct{}

var errNoValue = fmt.Errorf("no value")

func (e *env) eval(x Expr) (value, error) {
	switch n := x.(type) {
	case *Ident:
		if v, ok := e.locals[n.Name]; ok {
			return v, nil
		}
		if v, ok := e.m.scalars[n.Name]; ok {
			return v, nil
		}
		if n.Name == e.m.cls.PacketVar {
			return packetMarker{}, nil
		}
		if n.Name == "this" {
			return packetMarker{}, nil // only used inside fail(this)
		}
		return nil, fmt.Errorf("unknown name %q", n.Name)
	case *IntLit:
		return n.Value, nil
	case *TupleExpr:
		t := make(tuple, len(n.Elems))
		for i, el := range n.Elems {
			v, err := e.eval(el)
			if err != nil {
				return nil, err
			}
			t[i] = v
		}
		return t, nil
	case *CallExpr:
		return e.evalCall(n)
	case *MethodExpr:
		return e.evalMethod(n)
	case *IndexExpr:
		mp, ok := e.st.maps[n.Name]
		if !ok {
			return nil, fmt.Errorf("unknown map %q", n.Name)
		}
		k, err := e.eval(n.Idx)
		if err != nil {
			return nil, err
		}
		v, ok := mp[keyOf(k)]
		if !ok {
			return nil, fmt.Errorf("map %q has no entry for %s: %w", n.Name, keyOf(k), errNoValue)
		}
		return v, nil
	case *BinExpr:
		l, err := e.eval(n.L)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "&&":
			if lb, ok := l.(bool); ok && !lb {
				return false, nil
			}
			r, err := e.eval(n.R)
			if err != nil {
				return nil, err
			}
			return l.(bool) && r.(bool), nil
		case "||":
			if lb, ok := l.(bool); ok && lb {
				return true, nil
			}
			r, err := e.eval(n.R)
			if err != nil {
				return nil, err
			}
			return l.(bool) || r.(bool), nil
		}
		r, err := e.eval(n.R)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "==":
			return valueEq(l, r), nil
		case "!=":
			return !valueEq(l, r), nil
		}
		return nil, fmt.Errorf("unknown operator %q", n.Op)
	case *NotExpr:
		v, err := e.eval(n.E)
		if err != nil {
			return nil, err
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("! requires a boolean")
		}
		return !b, nil
	}
	return nil, fmt.Errorf("unsupported expression %T", x)
}

// accessors on the packet header.
var accessorNames = map[string]bool{
	"src": true, "dst": true, "dest": true, "src_port": true,
	"dst_port": true, "origin": true, "content": true, "flow": true,
}

func (e *env) evalCall(n *CallExpr) (value, error) {
	// fail(this)
	if n.Name == "fail" {
		return e.failed, nil
	}
	// Class predicate skype?(p).
	if strings.HasSuffix(n.Name, "?") {
		c, ok := e.m.reg.Lookup(strings.TrimSuffix(n.Name, "?"))
		return ok && e.classes.Has(c), nil
	}
	// Header accessors.
	if accessorNames[n.Name] {
		if len(n.Args) != 1 {
			return nil, fmt.Errorf("%s expects one argument", n.Name)
		}
		if _, err := e.expectPacket(n.Args[0]); err != nil {
			return nil, err
		}
		switch n.Name {
		case "src":
			return e.hdr.Src, nil
		case "dst", "dest":
			return e.hdr.Dst, nil
		case "src_port":
			return int(e.hdr.SrcPort), nil
		case "dst_port":
			return int(e.hdr.DstPort), nil
		case "origin":
			return e.hdr.Origin, nil
		case "content":
			return int(e.hdr.ContentID), nil
		case "flow":
			// The flow of the packet being processed is fixed at receive
			// time: Listing 2 rewrites src(p) before keying
			// active(flow(p)), which only makes sense if flow(p) names the
			// flow as received.
			return pkt.FlowOf(e.orig), nil
		}
	}
	// State map lookup: active(flow(p)).
	if mp, ok := e.st.maps[n.Name]; ok {
		if len(n.Args) != 1 {
			return nil, fmt.Errorf("map %q lookup expects one key", n.Name)
		}
		k, err := e.eval(n.Args[0])
		if err != nil {
			return nil, err
		}
		v, ok := mp[keyOf(k)]
		if !ok {
			return nil, fmt.Errorf("map %q has no entry for %s: %w", n.Name, keyOf(k), errNoValue)
		}
		return v, nil
	}
	// Abstract function: fresh deterministic value per call.
	for _, af := range e.m.cls.Abstract {
		if af.Name == n.Name {
			c := e.st.counters[af.Name]
			e.st.counters[af.Name] = c + 1
			return 50000 + c, nil
		}
	}
	return nil, fmt.Errorf("unknown function %q", n.Name)
}

func (e *env) evalMethod(n *MethodExpr) (value, error) {
	switch n.Method {
	case "contains":
		if len(n.Args) != 1 {
			return nil, fmt.Errorf("contains expects one argument")
		}
		k, err := e.eval(n.Args[0])
		if err != nil {
			return nil, err
		}
		key := keyOf(k)
		if set, ok := e.m.sets[n.Recv]; ok { // config set parameter
			return set[key], nil
		}
		if set, ok := e.st.sets[n.Recv]; ok { // state set
			return set[key], nil
		}
		if mp, ok := e.st.maps[n.Recv]; ok { // map key membership
			_, hit := mp[key]
			return hit, nil
		}
		return nil, fmt.Errorf("contains on unknown collection %q", n.Recv)
	}
	return nil, fmt.Errorf("unknown method %q", n.Method)
}

func (e *env) expectPacket(x Expr) (packetMarker, error) {
	v, err := e.eval(x)
	if err != nil {
		return packetMarker{}, err
	}
	p, ok := v.(packetMarker)
	if !ok {
		return packetMarker{}, fmt.Errorf("expected the packet variable")
	}
	return p, nil
}

func (e *env) exec(s Stmt) error {
	switch n := s.(type) {
	case *ForwardStmt:
		for _, px := range n.Packets {
			if _, err := e.expectPacket(px); err != nil {
				return err
			}
			e.outputs = append(e.outputs, e.hdr)
		}
		return nil
	case *AddStmt:
		set, ok := e.st.sets[n.Set]
		if !ok {
			return fmt.Errorf("+= on unknown state set %q", n.Set)
		}
		v, err := e.eval(n.Elem)
		if err != nil {
			return err
		}
		set[keyOf(v)] = true
		return nil
	case *AssignStmt:
		rhs, err := e.eval(n.RHS)
		if err != nil {
			return err
		}
		return e.assign(n.LHS, rhs)
	}
	return fmt.Errorf("unsupported statement %T", s)
}

func (e *env) assign(lhs Expr, rhs value) error {
	switch t := lhs.(type) {
	case *Ident:
		e.locals[t.Name] = rhs
		return nil
	case *TupleExpr:
		tup, ok := rhs.(tuple)
		if !ok || len(tup) != len(t.Elems) {
			return fmt.Errorf("tuple destructuring arity mismatch")
		}
		for i, el := range t.Elems {
			id, ok := el.(*Ident)
			if !ok {
				return fmt.Errorf("tuple destructuring targets must be names")
			}
			e.locals[id.Name] = tup[i]
		}
		return nil
	case *CallExpr:
		// Packet field write: dst(p) = ...
		if accessorNames[t.Name] && len(t.Args) == 1 {
			if _, err := e.expectPacket(t.Args[0]); err == nil {
				return e.setField(t.Name, rhs)
			}
		}
		// Map put: active(flow(p)) = ...
		if mp, ok := e.st.maps[t.Name]; ok {
			if len(t.Args) != 1 {
				return fmt.Errorf("map %q put expects one key", t.Name)
			}
			k, err := e.eval(t.Args[0])
			if err != nil {
				return err
			}
			mp[keyOf(k)] = rhs
			return nil
		}
		return fmt.Errorf("invalid assignment target %q", t.Name)
	case *IndexExpr:
		mp, ok := e.st.maps[t.Name]
		if !ok {
			return fmt.Errorf("unknown map %q", t.Name)
		}
		k, err := e.eval(t.Idx)
		if err != nil {
			return err
		}
		mp[keyOf(k)] = rhs
		return nil
	}
	return fmt.Errorf("invalid assignment target %T", lhs)
}

func (e *env) setField(field string, v value) error {
	switch field {
	case "src", "dst", "dest", "origin":
		a, ok := v.(pkt.Addr)
		if !ok {
			return fmt.Errorf("%s must be assigned an Address", field)
		}
		switch field {
		case "src":
			e.hdr.Src = a
		case "dst", "dest":
			e.hdr.Dst = a
		case "origin":
			e.hdr.Origin = a
		}
	case "src_port", "dst_port":
		i, ok := v.(int)
		if !ok || i < 0 || i > 65535 {
			return fmt.Errorf("%s must be assigned a port", field)
		}
		if field == "src_port" {
			e.hdr.SrcPort = pkt.Port(i)
		} else {
			e.hdr.DstPort = pkt.Port(i)
		}
	case "content":
		i, ok := v.(int)
		if !ok {
			return fmt.Errorf("content must be assigned an int")
		}
		e.hdr.ContentID = uint32(i)
	default:
		return fmt.Errorf("cannot assign field %q", field)
	}
	return nil
}

// referencesFail reports whether any expression in the class calls fail().
func referencesFail(cls *Class) bool {
	found := false
	walkClass(cls, func(x Expr) {
		if c, ok := x.(*CallExpr); ok && c.Name == "fail" {
			found = true
		}
	})
	return found
}

// collectClassPredicates returns the names of class predicates (`skype?`)
// used in the model.
func collectClassPredicates(cls *Class) []string {
	seen := map[string]bool{}
	walkClass(cls, func(x Expr) {
		if c, ok := x.(*CallExpr); ok && strings.HasSuffix(c.Name, "?") {
			seen[strings.TrimSuffix(c.Name, "?")] = true
		}
	})
	var out []string
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func walkClass(cls *Class, visit func(Expr)) {
	var walkExpr func(Expr)
	walkExpr = func(x Expr) {
		if x == nil {
			return
		}
		visit(x)
		switch n := x.(type) {
		case *TupleExpr:
			for _, el := range n.Elems {
				walkExpr(el)
			}
		case *CallExpr:
			for _, a := range n.Args {
				walkExpr(a)
			}
		case *MethodExpr:
			for _, a := range n.Args {
				walkExpr(a)
			}
		case *IndexExpr:
			walkExpr(n.Idx)
		case *BinExpr:
			walkExpr(n.L)
			walkExpr(n.R)
		case *NotExpr:
			walkExpr(n.E)
		}
	}
	for _, cl := range cls.Clauses {
		walkExpr(cl.Cond)
		for _, st := range cl.Body {
			switch s := st.(type) {
			case *ForwardStmt:
				for _, p := range s.Packets {
					walkExpr(p)
				}
			case *AddStmt:
				walkExpr(s.Elem)
			case *AssignStmt:
				walkExpr(s.LHS)
				walkExpr(s.RHS)
			}
		}
	}
}
