package mbox_test

// FuzzConfigKeys holds the three configuration keys to the sentences they
// are used under. Bytes decode into a model kind, two configurations of
// that kind, an address universe U — completed, as a slice's is, with the
// auxiliary and service addresses of both — and two packets over U. Then:
//
//   - equal exact keys ⇒ equal read keys over U;
//   - equal read keys over U ⇒ identical Process branches on every packet
//     whose addresses lie in U (the soundness sentence of configkey.go);
//   - the read key over U is the exact key of the configuration with its
//     dead entries deleted, deadness decided here by scanning U — and the
//     canonical key (the real slices.Canonizer, numbering U first) drops
//     exactly those entries too.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

var keyPool = [8]pkt.Addr{
	pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2"), pkt.MustParseAddr("10.0.1.1"),
	pkt.MustParseAddr("10.1.0.1"), pkt.MustParseAddr("10.1.0.2"), pkt.MustParseAddr("10.2.0.9"),
	pkt.MustParseAddr("192.0.2.7"), pkt.MustParseAddr("192.0.2.8"),
}

// keyFabric is a topology owning every pool address, for the canonizer's
// derived sections.
func keyFabric() (*topo.Topology, *tf.Engine) {
	t := topo.New()
	sw := t.AddSwitch("sw")
	fib := tf.FIB{}
	for i, a := range keyPool {
		h := t.AddHost(fmt.Sprintf("h%d", i), a)
		t.AddLink(h, sw)
		fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(a), In: topo.NodeNone, Out: h, Priority: 10})
	}
	return t, tf.New(t, fib, topo.NoFailures())
}

// keyBytes reads fuzz input; past the end it reads zeros.
type keyBytes struct {
	data []byte
	i    int
}

func (r *keyBytes) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	r.i++
	return r.data[r.i-1]
}

func (r *keyBytes) addr() pkt.Addr { return keyPool[r.next()%8] }

func (r *keyBytes) prefix() pkt.Prefix {
	a, l := r.addr(), []int{0, 16, 24, 32}[r.next()%4]
	if l == 0 {
		return pkt.Prefix{}
	}
	return pkt.Prefix{Addr: a >> uint(32-l) << uint(32-l), Len: l}
}

func (r *keyBytes) acl() []mbox.ACLEntry {
	acl := make([]mbox.ACLEntry, r.next()%5)
	for i := range acl {
		acl[i] = mbox.ACLEntry{Src: r.prefix(), Dst: r.prefix(), Action: mbox.Action(r.next() % 2)}
	}
	return acl
}

func (r *keyBytes) model(kind byte) mbox.Model {
	switch kind % 9 {
	case 0:
		return &mbox.LearningFirewall{ACL: r.acl(), DefaultAllow: r.next()%2 == 1}
	case 1:
		return &mbox.ContentCache{ACL: r.acl(), DefaultServe: r.next()%2 == 1}
	case 2:
		d := &mbox.IDPS{Scrubber: r.addr(), MalClass: pkt.Class(r.next() % 4), HasClass: r.next()%2 == 1}
		for n := r.next() % 4; n > 0; n-- {
			d.Watched = append(d.Watched, r.prefix())
		}
		return d
	case 3:
		return &mbox.NAT{NATAddr: r.addr(), PortBase: pkt.Port(r.next())<<8 | 1}
	case 4:
		l := &mbox.LoadBalancer{VIP: r.addr(), Backends: []pkt.Addr{r.addr()}}
		for n := r.next() % 3; n > 0; n-- {
			l.Backends = append(l.Backends, r.addr())
		}
		return l
	case 5:
		return &mbox.Scrubber{AttackClass: pkt.Class(r.next() % 4), HasClass: r.next()%2 == 1}
	case 6:
		return mbox.NewPassthrough("p", []string{"gateway", "router", ""}[r.next()%3])
	case 7:
		return &mbox.AppFirewall{Blocked: pkt.ClassSet(r.next())}
	default:
		return mbox.NewWANOptimizer("w")
	}
}

// packet draws a packet whose addresses all lie in universe.
func (r *keyBytes) packet(universe []pkt.Addr) mbox.Input {
	pick := func() pkt.Addr { return universe[int(r.next())%len(universe)] }
	h := pkt.Header{Src: pick(), Dst: pick(), SrcPort: 1000, DstPort: 80}
	switch r.next() % 3 {
	case 1:
		h.ContentID = 7
	case 2:
		h.ContentID, h.Origin = 7, pick()
	}
	return mbox.Input{Hdr: h, Classes: pkt.ClassSet(r.next())}
}

// withoutDead is m with the match-list entries no universe address can
// fire deleted; liveness is decided by scanning the universe.
func withoutDead(m mbox.Model, universe []pkt.Addr) mbox.Model {
	live := func(p pkt.Prefix) bool {
		for _, a := range universe {
			if p.Matches(a) {
				return true
			}
		}
		return false
	}
	liveACL := func(acl []mbox.ACLEntry) (out []mbox.ACLEntry) {
		for _, e := range acl {
			if live(e.Src) && live(e.Dst) {
				out = append(out, e)
			}
		}
		return out
	}
	switch c := m.(type) {
	case *mbox.LearningFirewall:
		return &mbox.LearningFirewall{ACL: liveACL(c.ACL), DefaultAllow: c.DefaultAllow}
	case *mbox.ContentCache:
		return &mbox.ContentCache{ACL: liveACL(c.ACL), DefaultServe: c.DefaultServe}
	case *mbox.IDPS:
		d := *c
		d.Watched = nil
		for _, p := range c.Watched {
			if live(p) {
				d.Watched = append(d.Watched, p)
			}
		}
		return &d
	}
	return m
}

// behaviour renders every branch of processing the packets in turn, each
// from the state the previous packet's first branch left.
func behaviour(m mbox.Model, packets []mbox.Input) string {
	var b strings.Builder
	st := m.InitState()
	for _, in := range packets {
		branches := m.Process(st, in)
		for _, br := range branches {
			fmt.Fprintf(&b, "%s %v %q; ", br.Label, br.Out, br.Next.Key())
		}
		st = branches[0].Next
	}
	return b.String()
}

func FuzzConfigKeys(f *testing.F) {
	for kind := byte(0); kind < 9; kind++ {
		f.Add([]byte{kind, 0x0b, 2, 0, 2, 3, 2, 1, 5, 3, 0, 0, 0, 1, 2, 0, 2, 3, 2, 1, 1, 0, 1, 2, 0, 1, 9})
		f.Add([]byte{kind, 0xff, 1, 6, 3, 7, 3, 1, 0, 1, 6, 3, 7, 3, 1, 0})
		f.Add([]byte{kind}) // the empty universe
	}
	t, eng := keyFabric()
	f.Fuzz(func(tt *testing.T, data []byte) {
		r := &keyBytes{data: data}
		kind, mask := r.next(), r.next()
		var universe []pkt.Addr
		for i, a := range keyPool {
			if mask&(1<<uint(i)) != 0 {
				universe = append(universe, a)
			}
		}
		a, b := r.model(kind), r.model(kind)
		for _, m := range []mbox.Model{a, b} {
			if aux, ok := m.(slices.AuxAddrs); ok {
				universe = append(universe, aux.AuxAddrs()...)
			}
			if svc, ok := m.(slices.ServiceAddrs); ok {
				universe = append(universe, svc.ServiceAddrs()...)
			}
		}
		atoms := topo.NewAtomSet(universe)
		var packets []mbox.Input
		if len(universe) > 0 {
			packets = []mbox.Input{r.packet(universe), r.packet(universe)}
		}

		exact := func(m mbox.Model) []byte { k, _ := mbox.ExactKey(nil, m); return k }
		read := func(m mbox.Model) []byte { k, _ := mbox.ReadKey(nil, m, atoms); return k }
		canon := func(m mbox.Model) []byte {
			c := slices.NewCanonizer(t, eng)
			for _, u := range universe {
				c.Addr(u)
			}
			if !c.PutBoxConfig(m) {
				tt.Fatalf("%T has no canonical key", m)
			}
			return c.Key()
		}
		if _, ok := mbox.ExactKey(nil, a); !ok {
			tt.Fatalf("%T has no description", a)
		}
		if bytes.Equal(exact(a), exact(b)) && !bytes.Equal(read(a), read(b)) {
			tt.Fatalf("equal exact keys, different read keys: %+v vs %+v", a, b)
		}
		if bytes.Equal(read(a), read(b)) && behaviour(a, packets) != behaviour(b, packets) {
			tt.Fatalf("equal read keys over %v, different behaviour: %+v vs %+v", universe, a, b)
		}
		trimmed := withoutDead(a, universe)
		if !bytes.Equal(read(a), exact(trimmed)) {
			tt.Fatalf("read key over %v is not the exact key of the live entries: %+v", universe, a)
		}
		if behaviour(a, packets) != behaviour(trimmed, packets) {
			tt.Fatalf("dropping the entries dead on %v changed behaviour: %+v", universe, a)
		}
		if !bytes.Equal(canon(a), canon(trimmed)) {
			tt.Fatalf("canonical key over %v does not drop exactly the dead entries: %+v", universe, a)
		}
	})
}
