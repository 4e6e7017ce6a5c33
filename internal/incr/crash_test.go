package incr_test

// Kill-mid-churn differential harness: a persist-enabled session is
// SIGKILLed (abandoned without Shutdown, with a torn half-record
// appended to its journal — the worst in-flight write a real kill can
// leave) at various points of a deterministic change stream, restarted
// from the state directory, and driven through the remainder of the
// stream. Every verdict and witness — at recovery and at every
// subsequent step — must be bit-identical to an uninterrupted session
// that never persisted anything; `make race` covers it with the race
// detector.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/topo"
)

const crashSteps = 9

// crashChanges is the deterministic change stream: step k's change-set
// is a pure function of (datacenter, k), so independently constructed
// lanes stay in lockstep. It cycles through every durable change kind —
// liveness toggles, firewall reconfiguration (absolute state, not a
// delta, so replay from any prefix converges), relabels, and invariant
// add/remove.
func crashChanges(d *bench.Datacenter, k int) []incr.Change {
	t := d.Net.Topo
	host := func(g int) pkt.Addr { return t.Node(d.Hosts[g%3][0]).Addr }
	switch k % 6 {
	case 0:
		return []incr.Change{incr.NodeDown(d.Hosts[(k/6)%3][0])}
	case 1: // mirror of case 0 at k-1
		return []incr.Change{incr.NodeUp(d.Hosts[((k-1)/6)%3][0])}
	case 2:
		fw := &mbox.LearningFirewall{
			InstanceName: "fw1",
			DefaultAllow: true,
			ACL: []mbox.ACLEntry{
				mbox.DenyEntry(pkt.HostPrefix(host(k)), pkt.HostPrefix(host(k+1))),
				mbox.DenyEntry(pkt.HostPrefix(host(k+1)), pkt.HostPrefix(host(k))),
			},
		}
		return []incr.Change{incr.BoxSwap(d.FW1, fw)}
	case 3:
		return []incr.Change{incr.Relabel(d.Hosts[(k+1)%3][0], fmt.Sprintf("churn-%d", k))}
	case 4:
		return []incr.Change{incr.AddInvariant(inv.Reachability{
			Dst: d.Hosts[2][0], SrcAddr: host(0), Label: fmt.Sprintf("p%d", k),
		})}
	default: // case 5: remove the invariant case 4 added at k-1
		return []incr.Change{incr.RemoveInvariant(fmt.Sprintf("p%d", k-1))}
	}
}

func TestCrashMidChurnRecovers(t *testing.T) {
	opts := core.Options{Engine: core.EngineSAT}
	for _, kill := range []int{0, 2, 5, 8} {
		// The ids keep the prefix they had while a node-granularity lane ran
		// beside this one.
		t.Run(fmt.Sprintf("gran=false/kill=%d", kill), func(t *testing.T) {
			t.Parallel()

			// Lane U: the uninterrupted reference, no persistence.
			dU := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
			sU, uCur, err := incr.NewSession(dU.Net, opts, dU.AllIsolationInvariants(), incr.Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Lane A: persist-enabled, killed after `kill` steps.
			dir := t.TempDir()
			popts := incr.Options{Persist: &incr.PersistOptions{Dir: dir, SnapshotEvery: 3}}
			dA := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
			sA, repA, err := incr.NewSession(dA.Net, opts, dA.AllIsolationInvariants(), popts)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, "init", repA, uCur)

			for k := 0; k < kill; k++ {
				uCur, err = sU.Apply(crashChanges(dU, k))
				if err != nil {
					t.Fatalf("lane U step %d: %v", k, err)
				}
				got, dup, err := sA.ApplyID(fmt.Sprintf("req-%d", k), crashChanges(dA, k))
				if err != nil || dup {
					t.Fatalf("lane A step %d: dup=%v err=%v", k, dup, err)
				}
				step := fmt.Sprintf("pre-kill step %d", k)
				compareReports(t, step, got, uCur)
				compareWitnesses(t, step, got, uCur)
			}

			// SIGKILL: abandon lane A without Shutdown, and leave the
			// torn half-record an in-flight append would have left.
			f, err := os.OpenFile(filepath.Join(dir, "journal.wal"),
				os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			f.Close()
			_ = sA // dead from here on

			// Lane B: restart from the state directory.
			dB := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
			sB, repB, err := incr.NewSession(dB.Net, opts, dB.AllIsolationInvariants(), popts)
			if err != nil {
				t.Fatal(err)
			}
			rec := sB.Recovery()
			if !rec.Recovered || rec.ColdStart {
				t.Fatalf("recovery = %+v, want warm restart", rec)
			}
			if rec.SampleMismatch {
				t.Fatalf("restored verdicts failed re-verification: %+v", rec)
			}
			compareReports(t, "recovery", repB, uCur)
			compareWitnesses(t, "recovery", repB, uCur)

			if kill > 0 {
				// An at-least-once client replaying its last unacked
				// request must get the current verdicts, not a re-apply.
				id := fmt.Sprintf("req-%d", kill-1)
				got, dup, err := sB.ApplyID(id, crashChanges(dB, kill-1))
				if err != nil || !dup {
					t.Fatalf("replayed %s: dup=%v err=%v", id, dup, err)
				}
				compareReports(t, "replayed "+id, got, uCur)
			}

			for k := kill; k < crashSteps; k++ {
				uCur, err = sU.Apply(crashChanges(dU, k))
				if err != nil {
					t.Fatalf("lane U step %d: %v", k, err)
				}
				got, dup, err := sB.ApplyID(fmt.Sprintf("req-%d", k), crashChanges(dB, k))
				if err != nil || dup {
					t.Fatalf("lane B step %d: dup=%v err=%v", k, dup, err)
				}
				step := fmt.Sprintf("post-restart step %d", k)
				compareReports(t, step, got, uCur)
				compareWitnesses(t, step, got, uCur)
			}
		})
	}
}

// durableStep draws one change-set from every durable change kind — liveness,
// a swapped-in firewall, a clone of the live firewall edited, a relabel,
// a box removal and its re-bind, and adds and removes of both added and initial invariant
// names, and the undoing edits: a host relabelled to its configured class, a
// firewall given its configured ACL again — against the lane's own network,
// so lanes seeded alike stay in lockstep. initial is the configuration's
// invariant list, conf a network built from it.
func durableStep(d *bench.Datacenter, initial []inv.Invariant, conf *core.Network, r *rand.Rand) []incr.Change {
	t := d.Net.Topo
	// ids1 stays up: traffic then never detours through ids2, whose model
	// the stream may remove (a modelless box on a path fails the encoding).
	nodes := []topo.NodeID{d.Hosts[0][0], d.Hosts[1][0], d.Hosts[2][0], d.FW1, d.FW2, d.IDS2}
	deny := func() mbox.ACLEntry {
		a, b := r.Intn(3), r.Intn(3)
		return mbox.DenyEntry(pkt.HostPrefix(t.Node(d.Hosts[a][0]).Addr), pkt.HostPrefix(t.Node(d.Hosts[b][0]).Addr))
	}
	var out []incr.Change
	removed := false // ids2, earlier in this very set
	for n := 1 + r.Intn(3); n > 0; n-- {
		fwNode := []topo.NodeID{d.FW1, d.FW2}[r.Intn(2)]
		fw, _ := boxAt(d.Net, fwNode).(*mbox.LearningFirewall)
		switch op := r.Intn(12); {
		case op == 0:
			out = append(out, incr.NodeDown(nodes[r.Intn(len(nodes))]))
		case op == 1:
			out = append(out, incr.NodeUp(nodes[r.Intn(len(nodes))]))
		case op == 2 && fw != nil:
			out = append(out, incr.BoxSwap(fwNode, &mbox.LearningFirewall{
				InstanceName: fw.InstanceName, DefaultAllow: true, ACL: []mbox.ACLEntry{deny(), deny()}}))
		case op == 3 && fw != nil:
			edited := cloneFirewall(fw)
			edited.ACL = append([]mbox.ACLEntry{deny()}, edited.ACL...)
			out = append(out, incr.BoxSwap(fwNode, edited))
		case op == 4:
			out = append(out, incr.Relabel(d.Hosts[r.Intn(3)][0], []string{"", "x", "y"}[r.Intn(3)]))
		case op == 5:
			out = append(out, incr.AddInvariant(inv.Reachability{
				Dst: d.Hosts[2][0], SrcAddr: t.Node(d.Hosts[0][0]).Addr, Label: fmt.Sprintf("p%d", r.Intn(3))}))
		case op == 6:
			out = append(out, incr.RemoveInvariant(fmt.Sprintf("p%d", r.Intn(3))))
		case op == 7:
			out = append(out, incr.RemoveInvariant(initial[r.Intn(len(initial))].Name()))
		case op == 8:
			out = append(out, incr.AddInvariant(initial[r.Intn(len(initial))]))
		case op == 9 && r.Intn(4) == 0: // rare: the box leaves, or comes back as the last box
			if ids2 := boxAt(d.Net, d.IDS2); ids2 != nil && !removed {
				removed = true
				out = append(out, incr.BoxRemove(d.IDS2))
			} else if ids2 == nil {
				out = append(out, incr.BoxSwap(d.IDS2, mbox.NewIDPS("ids2", d.Net.Registry, pkt.AddrNone)))
			}
		case op == 10:
			h := d.Hosts[r.Intn(3)][0]
			out = append(out, incr.Relabel(h, conf.PolicyClass[h]))
		case op == 11 && fw != nil:
			out = append(out, incr.BoxSwap(fwNode, cloneFirewall(boxAt(conf, fwNode).(*mbox.LearningFirewall))))
		}
	}
	return out
}

// mutableDump renders everything a durable change can move — the box roster
// with each configuration, the policy classes, the invariant list — as
// canonicalDump does while every middlebox node has a model, and through the
// same exporters once a box_remove has left one without (netdesc refuses to
// describe such a network as a file).
func mutableDump(t *testing.T, net *core.Network, invs []inv.Invariant) []byte {
	t.Helper()
	if len(net.Boxes) == 4 {
		return canonicalDump(t, net, invs)
	}
	var dump struct {
		Boxes      []*netdesc.Box
		Policy     map[string]string
		Invariants []netdesc.Invariant
	}
	for _, b := range net.Boxes {
		box, err := netdesc.ExportBox(net.Topo.Node(b.Node).Name, b.Model, net.Registry)
		if err != nil {
			t.Fatal(err)
		}
		dump.Boxes = append(dump.Boxes, box)
	}
	dump.Policy = map[string]string{}
	for n, c := range net.PolicyClass {
		dump.Policy[net.Topo.Node(n).Name] = c
	}
	for _, i := range invs {
		w, err := netdesc.ExportInvariant(net.Topo, i)
		if err != nil {
			t.Fatal(err)
		}
		dump.Invariants = append(dump.Invariants, w)
	}
	out, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Compaction is invisible: however often the journal was folded into a
// snapshot — after every record, every third, or never past start-up — a
// restart lands on the same network, liveness, verdicts and witnesses as a
// session that never persisted anything; and coalescing a coalesced list
// drops nothing more.
func TestCompactionIsInvisible(t *testing.T) {
	const steps = 24
	opts := core.Options{Engine: core.EngineSAT}
	lane := func(t *testing.T, seed int64, sopts incr.Options) (*bench.Datacenter, *incr.Session, []incr.Change) {
		d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
		initial := d.AllIsolationInvariants()
		s, _, err := incr.NewSession(d.Net, opts, initial, sopts)
		if err != nil {
			t.Fatal(err)
		}
		var all []incr.Change
		r := rand.New(rand.NewSource(seed))
		conf := bench.NewDatacenter(d.Cfg).Net
		for k := 0; k < steps; k++ {
			changes := durableStep(d, initial, conf, r)
			if _, _, err := s.ApplyID(fmt.Sprintf("req-%d", k), changes); err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
			all = append(all, changes...)
		}
		return d, s, all
	}
	wire := func(net *core.Network, changes []incr.Change) string {
		var ws []incr.WireChange
		for _, ch := range changes {
			w, ok := incr.EncodeChange(net, ch)
			if !ok {
				t.Fatalf("%+v is not durable", ch)
			}
			ws = append(ws, w)
		}
		b, _ := json.Marshal(ws)
		return string(b)
	}
	for seed := int64(1); seed <= 3; seed++ {
		dU, sU, all := lane(t, seed, incr.Options{})
		want := sU.CurrentReports()
		// Every middlebox of the datacenter starts bound.
		bound := func(n topo.NodeID) bool { return dU.Net.Topo.Node(n).Kind == topo.Middlebox }
		once, _ := incr.Coalesce(all, bound)
		if len(once) == len(all) {
			t.Fatalf("seed %d: a %d-change stream with nothing to coalesce tests nothing", seed, len(all))
		}
		if twice, _ := incr.Coalesce(once, bound); len(twice) != len(once) || wire(dU.Net, twice) != wire(dU.Net, once) {
			t.Fatalf("seed %d: Coalesce is not idempotent: a second pass dropped %d", seed, len(once)-len(twice))
		}
		for _, every := range []int{1, 3, -1} {
			name := fmt.Sprintf("seed=%d/every=%d", seed, every)
			dir := t.TempDir()
			popts := incr.Options{Persist: &incr.PersistOptions{Dir: dir, SnapshotEvery: every}}
			lane(t, seed, popts) // killed: no Shutdown
			d := bench.NewDatacenter(bench.DCConfig{Groups: 3, HostsPerGroup: 1})
			s, got, err := incr.NewSession(d.Net, opts, d.AllIsolationInvariants(), popts)
			if err != nil {
				t.Fatal(err)
			}
			if rec := s.Recovery(); !rec.Recovered || rec.ColdStart || rec.SampleMismatch {
				t.Fatalf("%s: recovery = %+v, want a warm restart", name, rec)
			}
			if g, w := mutableDump(t, d.Net, s.Invariants()), mutableDump(t, dU.Net, sU.Invariants()); !bytes.Equal(g, w) {
				t.Fatalf("%s: the recovered network differs from the live one:\n%s\n%s", name, g, w)
			}
			if g, w := fmt.Sprint(s.EffectiveScenarios()), fmt.Sprint(sU.EffectiveScenarios()); g != w {
				t.Fatalf("%s: recovered liveness %s, want %s", name, g, w)
			}
			compareReports(t, name, got, want)
			compareWitnesses(t, name, got, want)
			if !s.IsApplied(fmt.Sprintf("req-%d", steps-1)) {
				t.Fatalf("%s: the last request id was not restored", name)
			}
		}
	}
}
