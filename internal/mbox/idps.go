package mbox

import (
	"github.com/netverify/vmn/internal/pkt"
)

// ClassMalicious is the abstract class the IDS's lightweight detection
// assigns to packets that look like attack traffic (§5.3.3).
const ClassMalicious = "malicious"

// ClassAttack is the abstract class the scrubbing box's heavyweight
// analysis assigns to traffic it positively identifies as attack traffic.
const ClassAttack = "attack"

// IDPS models the ISP intrusion-detection box of §5.3.3 (and the IDPS of
// the Fig 1 datacenter): it performs lightweight monitoring and, once a
// watched destination prefix appears to be under attack, reroutes all
// traffic to that prefix to a central scrubbing box by encapsulation.
//
// The per-prefix attack flag is shared state, but which flow tripped it is
// irrelevant — the paper argues such IDSes are safely treated as
// origin-agnostic (§4.1, footnote 11). The box fails open (it must not cut
// customer traffic when down; the redundancy scenarios route around it).
type IDPS struct {
	InstanceName string
	Scrubber     pkt.Addr     // scrubbing box address (encapsulation target)
	Watched      []pkt.Prefix // customer prefixes eligible for protection
	MalClass     pkt.Class
	HasClass     bool
}

// NewIDPS builds an IDPS rerouting to the given scrubber; the "malicious"
// class is resolved against reg (may be nil, disabling detection).
func NewIDPS(name string, reg *pkt.Registry, scrubber pkt.Addr, watched ...pkt.Prefix) *IDPS {
	d := &IDPS{InstanceName: name, Scrubber: scrubber, Watched: watched}
	if c, ok := reg.Lookup(ClassMalicious); ok {
		d.MalClass, d.HasClass = c, true
	}
	return d
}

// Type implements Model.
func (d *IDPS) Type() string { return "idps" }

// Discipline implements Model. The paper's footnote 11: "While IDSes in
// general might not be flow-parallel, the specific IDS used here is
// flow-parallel with respect to a slice" — its per-prefix attack flag only
// concerns traffic already in the slice, so slices need not grow.
func (d *IDPS) Discipline() Discipline { return FlowParallel }

// FailMode implements Model.
func (d *IDPS) FailMode() FailMode { return FailOpen }

// RelevantClasses implements Model: the lightweight detector consults the
// "malicious" class, but only a box with a scrubber and a watched prefix
// runs it; any other configuration passes every packet through unread.
func (d *IDPS) RelevantClasses(reg *pkt.Registry) pkt.ClassSet {
	if d.Scrubber == pkt.AddrNone || len(d.Watched) == 0 {
		return 0
	}
	if c, ok := reg.Lookup(ClassMalicious); ok {
		return pkt.ClassSet(0).With(c)
	}
	return 0
}

// InitState implements Model: no prefix is under attack at boot.
func (d *IDPS) InitState() State { return newSetState() }

// AuxAddrs reports the scrubber address so that slicing (internal/slices)
// pulls the scrubbing box into any slice containing this IDS.
func (d *IDPS) AuxAddrs() []pkt.Addr {
	if d.Scrubber == pkt.AddrNone {
		return nil
	}
	return []pkt.Addr{d.Scrubber}
}

// watchedPrefix returns the watched prefix covering a, if any.
func (d *IDPS) watchedPrefix(a pkt.Addr) (pkt.Prefix, bool) {
	for _, p := range d.Watched {
		if p.Matches(a) {
			return p, true
		}
	}
	return pkt.Prefix{}, false
}

// Process implements Model.
func (d *IDPS) Process(st State, in Input) []Branch {
	s := checkState[*setState](st, "idps")
	h := in.Hdr
	pfx, watched := d.watchedPrefix(h.Dst)
	if !watched || d.Scrubber == pkt.AddrNone {
		return forward(s, "pass", Output{Hdr: h, Classes: in.Classes})
	}
	underAttack := s.has(pfx.String())
	malicious := d.HasClass && in.Classes.Has(d.MalClass)
	switch {
	case malicious && !underAttack:
		// Trip the attack flag and start rerouting.
		next := s.with(pfx.String())
		h.Tunnel = d.Scrubber
		return forward(next, "trip", Output{Hdr: h, Classes: in.Classes})
	case underAttack:
		h.Tunnel = d.Scrubber
		return forward(s, "reroute", Output{Hdr: h, Classes: in.Classes})
	default:
		return forward(s, "pass", Output{Hdr: h, Classes: in.Classes})
	}
}

// Scrubber models the central scrubbing box: it decapsulates rerouted
// traffic, discards what its heavyweight analysis flags as attack traffic,
// and forwards the rest to the original destination. Stateless, hence
// trivially flow-parallel; fails closed (traffic rerouted into a dead
// scrubber is lost — that is precisely the §5.3.3 risk).
type Scrubber struct {
	InstanceName string
	AttackClass  pkt.Class
	HasClass     bool
}

// NewScrubber builds a scrubber dropping packets of the registry's
// "attack" class.
func NewScrubber(name string, reg *pkt.Registry) *Scrubber {
	s := &Scrubber{InstanceName: name}
	if c, ok := reg.Lookup(ClassAttack); ok {
		s.AttackClass, s.HasClass = c, true
	}
	return s
}

// Type implements Model.
func (s *Scrubber) Type() string { return "scrubber" }

// Discipline implements Model.
func (s *Scrubber) Discipline() Discipline { return FlowParallel }

// FailMode implements Model.
func (s *Scrubber) FailMode() FailMode { return FailClosed }

// RelevantClasses implements Model.
func (s *Scrubber) RelevantClasses(reg *pkt.Registry) pkt.ClassSet {
	if c, ok := reg.Lookup(ClassAttack); ok {
		return pkt.ClassSet(0).With(c)
	}
	return 0
}

// InitState implements Model.
func (s *Scrubber) InitState() State { return emptyState{} }

// Process implements Model.
func (s *Scrubber) Process(st State, in Input) []Branch {
	h := in.Hdr
	h.Tunnel = pkt.AddrNone // decapsulate
	if s.HasClass && in.Classes.Has(s.AttackClass) {
		return drop(st, "scrubbed")
	}
	return forward(st, "clean", Output{Hdr: h, Classes: in.Classes})
}
