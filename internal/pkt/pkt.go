// Package pkt defines VMN's packet model: headers with the intrinsic
// fields the paper's invariants reference (src, dst, ports, origin),
// directional flows with a direction-insensitive canonical form (in the
// style of gopacket's Flow/Endpoint), and abstract packet classes assigned by the
// classification oracle (§2.2 of the paper).
package pkt

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4-style 32-bit address.
type Addr uint32

// AddrNone is the zero address, used as "unset".
const AddrNone Addr = 0

// ParseAddr parses a dotted-quad address ("10.0.0.1").
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("pkt: malformed address %q", s)
	}
	var a Addr
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("pkt: malformed address %q", s)
		}
		a = a<<8 | Addr(n)
	}
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address as a dotted quad.
func (a Addr) String() string {
	return string(a.AppendString(make([]byte, 0, 15)))
}

// AppendString appends the dotted-quad rendering to b without the fmt
// machinery — address and flow strings key middlebox state tables, making
// this a hot path of journey enumeration and explicit search.
func (a Addr) AppendString(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(byte(a>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(a)), 10)
}

// Prefix is an address prefix used by forwarding rules and ACLs.
type Prefix struct {
	Addr Addr
	Len  int // 0..32
}

// Matches reports whether a falls within the prefix.
func (p Prefix) Matches(a Addr) bool {
	if p.Len <= 0 {
		return true
	}
	if p.Len >= 32 {
		return p.Addr == a
	}
	shift := uint(32 - p.Len)
	return a>>shift == p.Addr>>shift
}

// HostPrefix returns the /32 prefix for a.
func HostPrefix(a Addr) Prefix { return Prefix{a, 32} }

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return string(strconv.AppendInt(append(p.Addr.AppendString(make([]byte, 0, 18)), '/'), int64(p.Len), 10))
}

// Port is a transport port number.
type Port uint16

// Proto is a transport protocol.
type Proto uint8

// Supported protocols.
const (
	TCP Proto = iota
	UDP
	ICMP
)

// String returns "tcp", "udp" or "icmp".
func (p Proto) String() string {
	switch p {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	default:
		return "icmp"
	}
}

// Header carries the intrinsic per-packet information middlebox forwarding
// models may inspect or rewrite. Origin is the provenance of the payload
// (the paper's origin(p), e.g. derived from x-http-forwarded-for) used by
// data-isolation invariants; ContentID names the payload for caches.
// Tunnel, when non-zero, is an encapsulation destination (e.g. an IDS
// redirecting suspect traffic to a scrubbing box IP-in-IP style): the
// static fabric routes on Tunnel until some middlebox decapsulates.
type Header struct {
	Src, Dst         Addr
	SrcPort, DstPort Port
	Proto            Proto
	Origin           Addr
	ContentID        uint32
	Tunnel           Addr
}

// MapAddrs applies f to every address-valued field of the header (Src,
// Dst, Origin, Tunnel), leaving AddrNone fields unset. It reports false as
// soon as f does — the hook canonical slice renaming (internal/slices)
// uses to carry headers between the address spaces of two isomorphic
// slices, where a partial map must fail loudly rather than mistranslate.
// Ports, protocol and content IDs are not topology-dependent and pass
// through unchanged.
func (h Header) MapAddrs(f func(Addr) (Addr, bool)) (Header, bool) {
	ok := true
	mapOne := func(a Addr) Addr {
		if a == AddrNone || !ok {
			return a
		}
		m, mok := f(a)
		if !mok {
			ok = false
			return a
		}
		return m
	}
	h.Src = mapOne(h.Src)
	h.Dst = mapOne(h.Dst)
	h.Origin = mapOne(h.Origin)
	h.Tunnel = mapOne(h.Tunnel)
	return h, ok
}

// RouteAddr is the address the static datapath forwards on: the tunnel
// endpoint when encapsulated, the destination otherwise.
func (h Header) RouteAddr() Addr {
	if h.Tunnel != AddrNone {
		return h.Tunnel
	}
	return h.Dst
}

// String renders a compact five-tuple plus origin.
func (h Header) String() string {
	s := fmt.Sprintf("%s:%d->%s:%d/%s origin=%s content=%d",
		h.Src, h.SrcPort, h.Dst, h.DstPort, h.Proto, h.Origin, h.ContentID)
	if h.Tunnel != AddrNone {
		s += fmt.Sprintf(" tunnel=%s", h.Tunnel)
	}
	return s
}

// Endpoint is one side of a flow.
type Endpoint struct {
	Addr Addr
	Port Port
}

// LessThan gives a total order on endpoints, used for canonical flows.
func (e Endpoint) LessThan(o Endpoint) bool {
	if e.Addr != o.Addr {
		return e.Addr < o.Addr
	}
	return e.Port < o.Port
}

// String renders "addr:port".
func (e Endpoint) String() string { return string(e.AppendString(make([]byte, 0, 21))) }

// AppendString appends "addr:port" to b (see Addr.AppendString).
func (e Endpoint) AppendString(b []byte) []byte {
	b = e.Addr.AppendString(b)
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(e.Port), 10)
}

// Flow is a directional transport flow (src endpoint, dst endpoint, proto).
type Flow struct {
	Src, Dst Endpoint
	Proto    Proto
}

// FlowOf extracts the flow of a header.
func FlowOf(h Header) Flow {
	return Flow{
		Src:   Endpoint{h.Src, h.SrcPort},
		Dst:   Endpoint{h.Dst, h.DstPort},
		Proto: h.Proto,
	}
}

// Reverse returns the flow in the opposite direction.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src, Proto: f.Proto} }

// Less gives a total order on flows (src, dst, proto lexicographically),
// used to keep middlebox state tables canonically sorted so their binary
// fingerprints are order-insensitive.
func (f Flow) Less(o Flow) bool {
	if f.Src != o.Src {
		return f.Src.LessThan(o.Src)
	}
	if f.Dst != o.Dst {
		return f.Dst.LessThan(o.Dst)
	}
	return f.Proto < o.Proto
}

// Canonical returns the direction-insensitive representative of the flow
// (the lexicographically smaller endpoint first), so that a flow and its
// reverse map to the same key — what stateful firewalls key their
// "established" sets on.
func (f Flow) Canonical() Flow {
	if f.Dst.LessThan(f.Src) {
		return f.Reverse()
	}
	return f
}

// String renders "src->dst/proto".
func (f Flow) String() string {
	return string(f.AppendString(make([]byte, 0, 64)))
}

// AppendString appends the "src->dst/proto" rendering to b, byte-identical
// to String but without per-component allocations.
func (f Flow) AppendString(b []byte) []byte {
	b = f.Src.AppendString(b)
	b = append(b, '-', '>')
	b = f.Dst.AppendString(b)
	b = append(b, '/')
	return append(b, f.Proto.String()...)
}
