package tf

import (
	"fmt"
	"slices"
	"testing"

	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

// patchTopo is a small fabric with every node kind: three hosts behind a
// triangle of switches, a middlebox hanging off one of them and an
// external node off another.
func patchTopo() *topo.Topology {
	t := topo.New()
	var sw [3]topo.NodeID
	for i := range sw {
		sw[i] = t.AddSwitch(fmt.Sprintf("s%d", i))
	}
	for i := range sw {
		h := t.AddHost(fmt.Sprintf("h%d", i), pkt.Addr(10<<24|uint32(i)<<16|1))
		t.AddLink(h, sw[i])
		t.AddLink(sw[i], sw[(i+1)%3])
	}
	t.AddLink(t.AddMiddlebox("m", "firewall"), sw[0])
	t.AddLink(t.AddExternal("ext", pkt.Addr(8<<24|1)), sw[1])
	return t
}

// byteStream hands out the fuzz input one byte at a time (zeros once it
// runs dry, so every prefix of an input is an input).
type byteStream struct{ b []byte }

func (s *byteStream) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

// rule draws a rule with few distinct priorities and prefix lengths, so
// ties on every sort criterion — where only table order decides — are
// common.
func (s *byteStream) rule(t *topo.Topology, hosts []pkt.Addr) Rule {
	r := Rule{
		Match:    pkt.Prefix{Addr: hosts[s.next()%len(hosts)], Len: []int{0, 8, 16, 32}[s.next()%4]},
		In:       topo.NodeNone,
		Out:      topo.NodeID(s.next() % t.NumNodes()),
		Priority: s.next() % 3,
	}
	if in := s.next() % (2 * t.NumNodes()); in < t.NumNodes() {
		r.In = topo.NodeID(in)
	}
	return r
}

// FuzzTablesPatch drives a random stream of table edits — rule add,
// remove, replace, reorder; whole tables added and deleted; equal copies
// and the compiled slice itself handed back — and after every step holds
// the patched state to the from-scratch one: equal fingerprints, and equal
// Next, Consulted and ConsultedTables for every (edge node, host address)
// pair, under no failure and under one failure drawn from the input. It
// also checks what
// makes a patch cheap and a delta usable: untouched owners keep their
// compiled table (same object), at most the edited owner is compiled, and
// the reported deltas are exactly the owners whose lists differ, with
// Head and Tail framing a true common head and tail.
func FuzzTablesPatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 0, 1, 9, 0, 4, 0, 3, 1, 0, 9, 1, 3, 0, 2, 2, 2, 9})
	f.Add([]byte{2, 0, 0, 0, 3, 0, 1, 0, 1, 1, 3, 1, 1, 6, 0, 0, 4, 0, 5, 0, 2, 0, 7, 0, 0, 1, 2, 2, 2})
	f.Add([]byte("\x05\x01\x00\x03\x02\x01\x00\x00\x01\x03\x03\x04\x01\x10\x02\x06\x03\x00\x00\x07\x01\x02\x03\x04\x05\x06"))
	f.Add([]byte("000007008010071080")) // a rule inserted among rules it ties with
	f.Fuzz(func(t *testing.T, data []byte) {
		tp := patchTopo()
		var hosts []pkt.Addr
		for _, id := range tp.EdgeNodes() {
			if a := tp.Node(id).Addr; a != pkt.AddrNone {
				hosts = append(hosts, a)
			}
		}
		in := &byteStream{data}
		fail := topo.Failures(topo.NodeID(in.next() % tp.NumNodes()))

		fib := FIB{}
		tabs := NewTables(tp)
		for step := 0; len(in.b) > 0 && step < 64; step++ {
			owner := topo.NodeID(in.next() % tp.NumNodes())
			cur, had := fib[owner]
			// What the compiled state holds for owner: equal to cur rule by
			// rule, but the same slice only if no equal copy was handed over
			// since.
			old := tabs.Rules(owner)
			next := make(FIB, len(fib)+1)
			for n, rs := range fib {
				next[n] = rs
			}
			at := func() int { return in.next() % len(cur) }
			switch op := in.next() % 7; {
			case op == 0 || len(cur) == 0: // add a rule (creating the table if need be)
				i := in.next() % (len(cur) + 1)
				next[owner] = slices.Insert(slices.Clone(cur), i, in.rule(tp, hosts))
			case op == 1: // remove
				i := at()
				next[owner] = slices.Delete(slices.Clone(cur), i, i+1)
			case op == 2: // replace
				rs := slices.Clone(cur)
				rs[at()] = in.rule(tp, hosts)
				next[owner] = rs
			case op == 3: // reorder
				rs := slices.Clone(cur)
				i, j := at(), at()
				rs[i], rs[j] = rs[j], rs[i]
				next[owner] = rs
			case op == 4: // delete the table
				delete(next, owner)
			case op == 5: // an equal copy: must compile nothing
				next[owner] = slices.Clone(cur)
			default: // the very slice compiled, handed back: must compile nothing
				next[owner] = old
			}

			patched, deltas, compiled := tabs.Patch(next)
			want := 0
			if now, has := next[owner]; has && (!had || !slices.Equal(old, now)) {
				want = 1
			}
			if compiled != want {
				t.Fatalf("step %d: %d tables compiled, want %d", step, compiled, want)
			}
			for n := topo.NodeID(0); int(n) < tp.NumNodes(); n++ {
				if n != owner && patched.table(n) != tabs.table(n) {
					t.Fatalf("step %d: untouched owner %d lost its compiled table", step, n)
				}
			}
			checkDeltas(t, step, deltas, owner, had, old, next)
			for _, sc := range []topo.FailureScenario{topo.NoFailures(), fail} {
				got, want := patched.Engine(sc), New(tp, next, sc)
				if got.Tables() != patched {
					t.Fatalf("step %d: a view must share the tables it was taken over", step)
				}
				if got.Fingerprint() != want.Fingerprint() || !got.SameBehaviour(want) {
					t.Fatalf("step %d: patched engine differs from tf.New in fingerprint or content", step)
				}
				for _, from := range tp.EdgeNodes() {
					for _, dst := range hosts {
						gn, gok, gerr := got.Next(from, dst)
						wn, wok, werr := want.Next(from, dst)
						if gn != wn || gok != wok || fmt.Sprint(gerr) != fmt.Sprint(werr) {
							t.Fatalf("step %d: Next(%d, %s) = %v %v %v, tf.New gives %v %v %v",
								step, from, dst, gn, gok, gerr, wn, wok, werr)
						}
						if g, w := got.Consulted(from, dst), want.Consulted(from, dst); !slices.Equal(g, w) {
							t.Fatalf("step %d: Consulted(%d, %s) = %v, tf.New gives %v", step, from, dst, g, w)
						}
						if g, w := got.ConsultedTables(from, dst), want.ConsultedTables(from, dst); !slices.Equal(g, w) {
							t.Fatalf("step %d: ConsultedTables(%d, %s) = %v, tf.New gives %v", step, from, dst, g, w)
						}
					}
				}
			}
			fib, tabs = next, patched
		}
	})
}

// checkDeltas holds the deltas of one step to the edit that produced it:
// at most one, for owner, present iff its list differs from the one the
// compiled state holds (an equal copy and that very slice show none),
// carrying the two lists and a Head and Tail that frame equal rules.
func checkDeltas(t *testing.T, step int, deltas []TableDelta, owner topo.NodeID, had bool, old []Rule, next FIB) {
	t.Helper()
	new, has := next[owner]
	if had == has && slices.Equal(old, new) {
		if len(deltas) != 0 {
			t.Fatalf("step %d: no list differs, got deltas %+v", step, deltas)
		}
		return
	}
	if len(deltas) != 1 || deltas[0].Node != owner {
		t.Fatalf("step %d: want one delta for owner %d, got %+v", step, owner, deltas)
	}
	d := deltas[0]
	if !slices.Equal(d.Old, old) || !slices.Equal(d.New, new) {
		t.Fatalf("step %d: delta lists %v -> %v, want %v -> %v", step, d.Old, d.New, old, new)
	}
	if d.Head+d.Tail > min(len(old), len(new)) ||
		!slices.Equal(old[:d.Head], new[:d.Head]) ||
		!slices.Equal(old[len(old)-d.Tail:], new[len(new)-d.Tail:]) {
		t.Fatalf("step %d: head %d / tail %d do not frame equal rules of %v -> %v", step, d.Head, d.Tail, old, new)
	}
}
