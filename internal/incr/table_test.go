package incr

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/symmetry"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// The group table on its own: bytes decode into regroup / install /
// resolve / clone steps over small synthetic entries (8 nodes, one address
// per /8), and after every step
//
//   - the posting lists are exactly what a recount from the records says:
//     no list names a freed slot, a slot is under a node exactly when its
//     entry's footprint says so, and postings() — the vmn_incr_posting_entries
//     gauge — is that recount's size;
//   - resolve's candidates hold every group a naive per-record classify
//     scan calls dirty, every settled group outside them classifies clean
//     or refined-clean, and the refined-clean count markDirty would report
//     is the naive scan's;
//   - a table that was cloned stays as it was while the steps go on
//     against its clone.

const (
	tableNodes = 8
	tableKeys  = 6
)

func tableAddr(b byte) pkt.Addr { return pkt.Addr(b%16)<<24 | 1 }

// tableDump renders everything observable about t.
func tableDump(t *groupTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "order=%v free=%v unsettled=%v\n", t.order, t.free, t.unsettled)
	for s, r := range t.recs {
		fmt.Fprintf(&b, "%d: %q %q %p pos=%d mark=%d slotOf=%d\n", s, r.key, r.rep, r.entry, r.pos, r.mark, t.slotOf[r.key])
	}
	return b.String() + renderPosts(t.nodePost)
}

func renderPosts(post map[topo.NodeID][]slot) string {
	keys := make([]int, 0, len(post))
	for k := range post {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "\n%d:%v", k, post[topo.NodeID(k)])
	}
	return b.String() + "\n"
}

// checkTable recounts the posting lists from the records.
func checkTable(t *testing.T, step string, tab *groupTable) {
	t.Helper()
	nodes, count := map[topo.NodeID][]slot{}, 0
	live := map[slot]bool{}
	for gi, s := range tab.order {
		r := tab.recs[s]
		if live[s] || r.key == "" || r.pos != gi || tab.slotOf[r.key] != s {
			t.Fatalf("%s: order[%d]=%d is not a live record of its own: %+v", step, gi, s, r)
		}
		live[s] = true
		if unsettled := r.entry == nil || r.entry.exceeded; unsettled != slices.Contains(tab.unsettled, s) {
			t.Fatalf("%s: slot %d unsettled=%v, set %v", step, s, unsettled, tab.unsettled)
		}
		if r.entry == nil {
			continue
		}
		for _, n := range r.entry.touched {
			nodes[n] = append(nodes[n], s)
			count++
		}
	}
	for _, s := range tab.free {
		if r := tab.recs[s]; live[s] || r.key != "" || r.entry != nil {
			t.Fatalf("%s: free slot %d is in use: %+v", step, s, tab.recs[s])
		}
	}
	if len(tab.order)+len(tab.free) != len(tab.recs) || len(tab.slotOf) != len(tab.order) || len(tab.unsettled) > len(tab.order) {
		t.Fatalf("%s: %d records, %d live, %d free, %d keys", step, len(tab.recs), len(tab.order), len(tab.free), len(tab.slotOf))
	}
	for _, list := range nodes {
		slices.Sort(list)
	}
	if got, want := renderPosts(tab.nodePost), renderPosts(nodes); got != want {
		t.Fatalf("%s: node postings%swant%s", step, got, want)
	}
	if tab.postings() != count {
		t.Fatalf("%s: postings() = %d, the records hold %d", step, tab.postings(), count)
	}
}

func FuzzGroupTable(f *testing.F) {
	f.Add([]byte{0, 0x3f, 0, 1, 0, 0x0f, 0x03, 1, 2, 2, 0x01, 0, 0x02, 1})
	f.Add([]byte{0, 0x07, 0, 1, 1, 0xff, 0xff, 3, 4, 3, 1, 2, 0x0f, 5, 2, 0, 0, 0xf0, 3, 0, 0x05, 0x04})
	f.Add([]byte{0, 0x3f, 0, 1, 0, 0x81, 0x00, 0, 0, 1, 1, 0x18, 0x18, 7, 9, 0, 0x3e, 0x01, 2, 0x10, 0x08, 0, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		nodesOf := func(mask byte) (out []topo.NodeID) {
			for n := 0; n < tableNodes; n++ {
				if mask&(1<<n) != 0 {
					out = append(out, topo.NodeID(n))
				}
			}
			return out
		}
		tab := newGroupTable()
		type frozen struct {
			tab  *groupTable
			dump string
		}
		var clones []frozen
		for i := 0; i < 64 && len(data) > 0; i++ {
			op := next() % 4
			step := fmt.Sprintf("step %d (op %d)", i, op)
			switch op {
			case 0: // regroup: which keys, under which representatives, from where
				present, variant, rot := next(), next(), int(next())
				var groups []symmetry.Group
				var keys []string
				for j := 0; j < tableKeys; j++ {
					k := (j + rot) % tableKeys
					if present&(1<<k) == 0 {
						continue
					}
					rep := inv.SimpleIsolation{Dst: topo.NodeID(k), SrcAddr: tableAddr(variant >> k & 1)}
					groups = append(groups, symmetry.Group{Signature: fmt.Sprintf("g%d", k), Representative: rep, Members: []inv.Invariant{rep}})
					keys = append(keys, fmt.Sprintf("g%d", k))
				}
				was := map[string]groupRecord{}
				for _, s := range tab.order {
					was[tab.recs[s].key] = tab.recs[s]
				}
				tab.regroup(groups, keys)
				for gi, s := range tab.order {
					r, old := tab.recs[s], was[keys[gi]]
					if r.key != keys[gi] || r.rep != invIdentity(groups[gi].Representative, "") {
						t.Fatalf("%s: order[%d] holds %q/%q", step, gi, r.key, r.rep)
					}
					if kept := old.rep == r.rep; (kept && r.entry != old.entry) || (!kept && r.entry != nil) {
						t.Fatalf("%s: %q (representative kept: %v) has entry %p, had %p", step, r.key, kept, r.entry, old.entry)
					}
				}
			case 1: // install a synthetic entry at one group
				at, touched, readers, a1, a2, flags := next(), next(), next(), next(), next(), next()
				if len(tab.order) == 0 {
					continue
				}
				e := &groupEntry{touched: nodesOf(touched), exceeded: flags&3 == 3}
				if e.coarse = flags&12 == 12; !e.coarse {
					e.fib = map[topo.NodeID]topo.AtomSet{}
					for _, n := range nodesOf(touched & readers) {
						e.fib[n] = topo.NewAtomSet([]pkt.Addr{tableAddr(a1 + byte(n)), tableAddr(a2)})
					}
				}
				tab.install(tab.order[int(at)%len(tab.order)], e)
			case 2: // resolve an impact against a naive classify scan
				im := newImpact()
				im.nodes.addAll(nodesOf(next() & next()))
				im.boxes.addAll(nodesOf(next() & next()))
				for _, n := range nodesOf(next()) {
					p := pkt.Prefix{Addr: tableAddr(next()), Len: 8 - int(next()%3)}
					im.fib[n] = []*fibDelta{newFIBDelta(tf.TableDelta{Node: n, New: []tf.Rule{{Match: p, Out: n}}})}
				}
				noKey := func(topo.NodeID, topo.AtomSet) (string, bool) { return "", false }
				candidates, refined := tab.resolve(im)
				refinedClean := 0
				for _, s := range tab.order {
					e := tab.recs[s].entry
					if e == nil || e.exceeded {
						if slices.Contains(candidates, s) {
							t.Fatalf("%s: unsettled slot %d is a candidate", step, s)
						}
						continue
					}
					verdict, _ := im.classify(e, noKey)
					if verdict == groupRefinedClean {
						refinedClean++
						if slices.Contains(candidates, s) {
							refined++ // markDirty counts it after classify
						}
					}
					if verdict == groupDirty && !slices.Contains(candidates, s) {
						t.Fatalf("%s: slot %d classifies dirty and is no candidate (%v)", step, s, candidates)
					}
				}
				if refined != refinedClean {
					t.Fatalf("%s: refined-clean %d, a full scan says %d", step, refined, refinedClean)
				}
			default: // freeze the table and go on against its clone
				clones = append(clones, frozen{tab, tableDump(tab)})
				tab = tab.clone()
				if got := tableDump(tab); got != clones[len(clones)-1].dump {
					t.Fatalf("%s: clone differs:\n%s\nfrom\n%s", step, got, clones[len(clones)-1].dump)
				}
			}
			checkTable(t, step, tab)
		}
		for ci, c := range clones {
			if got := tableDump(c.tab); got != c.dump {
				t.Fatalf("clone %d's original changed:\n%s\nwas\n%s", ci, got, c.dump)
			}
		}
	})
}
