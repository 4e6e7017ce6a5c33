package incr

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// The group table on its own: bytes decode into regroup / install /
// resolve / freeze steps over small synthetic entries (8 nodes, one address
// per /8), and after every step
//
//   - after a regroup (up to three members arriving, departing or
//     re-signed), the partition is the one computed from scratch —
//     symmetry.Groups — in group order, member order and keys, and a record
//     kept its entry exactly when its key kept its representative's
//     identity;
//   - the posting lists are exactly what a recount from the records says:
//     no list names a freed slot, a slot is under a node exactly when its
//     entry's footprint says so, and postings() — the vmn_incr_posting_entries
//     gauge — is that recount's size;
//   - resolve's candidates hold every group a naive per-record classify
//     scan calls dirty, every settled group outside them classifies clean
//     or refined-clean, and the refined-clean count markDirty would report
//     is the naive scan's;
//   - the first freeze arms a trail, and at the end undoing it back to
//     each freeze restores the table as that freeze saw it, and redoing it
//     restores the final one.
//
// The table keys every group by its members' signature whether or not the
// session has symmetry (without, the signatures name no classes), so the
// bytes carry no mode.

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
		ords := make([]uint64, len(r.members))
		for i, m := range r.members {
			ords[i] = m.ord
		}
		fmt.Fprintf(&b, "%d: %q %q %v %p mark=%d slotOf=%d\n", s, r.key, r.rep, ords, r.entry, r.mark, t.slotOf[r.key])
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
		if live[s] || r.key == "" || tab.slotOf[r.key] != s {
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

// plainInv is an invariant type without slots: its identity is its name
// under its signature.
type plainInv struct {
	inv.Invariant // nil: only the name is read
	name          string
}

func (p plainInv) Name() string { return p.name }

// A regroup step is a count byte, then per member a kind (0 arrive, 1
// depart, 2 re-sign), a pick and an argument.
func FuzzGroupTable(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 0x08, 0, 0, 0x11, 0, 1, 0x00, 1, 0, 0x0f, 0x03, 1, 2, 2, 0x01, 0, 0x02, 1})
	// A representative leaves its group, another takes over, the group empties.
	f.Add([]byte{0, 2, 0, 0, 0x08, 0, 0, 0x0c, 1, 0, 0, 0xff, 0xff, 0, 0, 2, 0, 0, 0x08, 1, 1, 0, 0, 0, 1, 0, 0, 0})
	// Re-signs into and out of a group ahead of its representative.
	f.Add([]byte{0, 2, 0, 0, 0x10, 0, 0, 0x18, 0, 1, 0, 0, 0x08, 0, 0, 2, 2, 1, 0, 2, 2, 0, 3, 1, 0x07, 0x07, 2, 0, 0, 0, 1, 2, 1, 1})
	// Invariants of one identity arrive, depart and are re-signed.
	f.Add([]byte{0, 2, 0, 0, 0x04, 0, 0, 0x04, 0, 2, 0, 0, 0x44, 0, 0, 0x44, 1, 0, 0, 0x3f, 0x01, 0, 1, 1, 0, 0, 0, 1, 2, 2, 0x15, 3, 0, 0, 0, 2, 2, 1, 0x0b})
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
		var list []*member
		tab := newGroupTable()
		var tr *trail // nil until the first freeze
		type frozen struct {
			at   int // the trail's length
			dump string
		}
		var freezes []frozen
		for i := 0; i < 64 && len(data) > 0; i++ {
			op := next() % 4
			step := fmt.Sprintf("step %d (op %d)", i, op)
			switch op {
			case 0: // regroup: members arrive, depart or are re-signed
				var moves []move
				touched := map[*member]bool{}
				for j, n := 0, 1+int(next()%3); j < n; j++ {
					kind, pick, arg := next()%3, int(next()), next()
					var m *member
					if len(list) > 0 {
						m = list[pick%len(list)]
					}
					sig := fmt.Sprintf("g%d", arg%tableKeys)
					switch {
					case kind == 0 || m == nil:
						ord := uint64(0)
						if len(list) > 0 {
							ord = list[len(list)-1].ord + 1
						}
						var i inv.Invariant = plainInv{name: fmt.Sprintf("p%d", arg>>3%3)}
						if arg&0x40 == 0 {
							i = inv.SimpleIsolation{Dst: topo.NodeID(arg >> 3 % 3), SrcAddr: tableAddr(arg >> 5 & 1)}
						}
						m = &member{inv: i, ord: ord, sig: sig}
						list = append(list, m)
						moves = append(moves, move{m, "", sig})
					case touched[m]:
					case kind == 1:
						list = slices.DeleteFunc(slices.Clone(list), func(x *member) bool { return x == m })
						moves = append(moves, move{m, m.sig, ""})
					case sig != m.sig:
						moves = append(moves, move{m, m.sig, sig})
						m.sig = sig
					}
					touched[m] = true
				}
				was := map[string]groupRecord{}
				for _, s := range tab.order {
					was[tab.recs[s].key] = tab.recs[s]
				}
				tab.regroup(tr, moves)
				sigs := make([]string, len(list))
				for i, m := range list {
					sigs[i] = m.sig
				}
				if err := tableAgrees(tab, list, sigs); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				for _, s := range tab.order {
					r := tab.recs[s]
					old, had := was[r.key]
					if kept := had && old.rep == r.rep; (kept && r.entry != old.entry) || (!kept && r.entry != nil) {
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
				tab.install(tr, tab.order[int(at)%len(tab.order)], e)
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
			default: // freeze: note the table, and go on with a trail armed
				if tr == nil {
					tr = new(trail)
				}
				freezes = append(freezes, frozen{len(*tr), tableDump(tab)})
			}
			checkTable(t, step, tab)
		}
		if tr == nil {
			return
		}
		final, end := tableDump(tab), len(*tr)
		for i := len(freezes) - 1; i >= 0; i-- {
			(*tr)[freezes[i].at:end].undo()
			end = freezes[i].at
			if got := tableDump(tab); got != freezes[i].dump {
				t.Fatalf("undone to freeze %d:\n%s\nwas\n%s", i, got, freezes[i].dump)
			}
		}
		(*tr)[end:].redo()
		if got := tableDump(tab); got != final {
			t.Fatalf("redone:\n%s\nwas\n%s", got, final)
		}
	})
}
