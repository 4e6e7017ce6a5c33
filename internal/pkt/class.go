package pkt

import (
	"fmt"
	"sort"
)

// Class is a bit index into a ClassSet, identifying one abstract packet
// class (e.g. "malicious", "skype"). Classes are registered in a Registry.
type Class uint8

// MaxClasses bounds the number of abstract classes per registry so that a
// ClassSet fits in one machine word.
const MaxClasses = 64

// ClassSet is a set of abstract packet classes, as assigned to a packet by
// the classification oracle (§2.2). The empty set means "no class".
type ClassSet uint64

// Has reports membership.
func (s ClassSet) Has(c Class) bool { return s&(1<<c) != 0 }

// With returns s ∪ {c}.
func (s ClassSet) With(c Class) ClassSet { return s | 1<<c }

// Without returns s \ {c}.
func (s ClassSet) Without(c Class) ClassSet { return s &^ (1 << c) }

// Count returns the number of classes in the set.
func (s ClassSet) Count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// Registry names abstract packet classes and records declared exclusivity
// constraints between them (e.g. a packet cannot be both Skype and Jabber,
// §3.6). A nil Registry behaves as empty.
type Registry struct {
	names     []string
	byName    map[string]Class
	exclusive []ClassSet // groups whose members are mutually exclusive
}

// NewRegistry creates an empty class registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Class{}}
}

// Register adds a class name and returns its Class, or the existing one.
func (r *Registry) Register(name string) Class {
	if c, ok := r.byName[name]; ok {
		return c
	}
	if len(r.names) >= MaxClasses {
		panic(fmt.Sprintf("pkt: more than %d abstract classes", MaxClasses))
	}
	c := Class(len(r.names))
	r.names = append(r.names, name)
	r.byName[name] = c
	return c
}

// Lookup returns the class for name, if registered.
func (r *Registry) Lookup(name string) (Class, bool) {
	if r == nil {
		return 0, false
	}
	c, ok := r.byName[name]
	return c, ok
}

// Name returns the display name of c.
func (r *Registry) Name(c Class) string {
	if int(c) < len(r.names) {
		return r.names[c]
	}
	return fmt.Sprintf("class!%d", c)
}

// Len returns the number of registered classes.
func (r *Registry) Len() int { return len(r.names) }

// Names returns the registered class names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// DeclareExclusive records that the named classes are mutually exclusive:
// no packet may belong to two of them. The constraint is consulted by
// Consistent and exported to the verification engines, closing the
// false-positive channel §3.6 describes.
func (r *Registry) DeclareExclusive(names ...string) {
	var set ClassSet
	for _, n := range names {
		set = set.With(r.Register(n))
	}
	r.exclusive = append(r.exclusive, set)
}

// Consistent reports whether a class assignment respects all declared
// exclusivity constraints.
func (r *Registry) Consistent(s ClassSet) bool {
	if r == nil {
		return true
	}
	for _, g := range r.exclusive {
		if (s & g).Count() > 1 {
			return false
		}
	}
	return true
}

// EnumerateConsistent returns every class assignment over the registered
// classes that satisfies the exclusivity constraints. The classification
// oracle ranges over exactly these assignments. Only classes in `relevant`
// vary; others stay unset (callers pass the classes the slice's middleboxes
// actually consult, keeping enumeration small).
func (r *Registry) EnumerateConsistent(relevant ClassSet) []ClassSet {
	var bits []Class
	for c := Class(0); int(c) < r.Len(); c++ {
		if relevant.Has(c) {
			bits = append(bits, c)
		}
	}
	var out []ClassSet
	for m := 0; m < 1<<uint(len(bits)); m++ {
		var s ClassSet
		for i, c := range bits {
			if m>>uint(i)&1 == 1 {
				s = s.With(c)
			}
		}
		if r.Consistent(s) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set using registry names.
func (r *Registry) String(s ClassSet) string {
	if s == 0 {
		return "{}"
	}
	out := "{"
	first := true
	for c := Class(0); int(c) < r.Len(); c++ {
		if s.Has(c) {
			if !first {
				out += ","
			}
			out += r.Name(c)
			first = false
		}
	}
	return out + "}"
}
