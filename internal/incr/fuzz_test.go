package incr_test

// Differential churn fuzzing: arbitrary bytes decode into a change stream
// over the bench networks, and after EVERY step the session's report set
// must be bit-identical — verdicts AND witnesses — to a from-scratch
// VerifyAll over the same mutated network. This is the correctness bar of the
// incremental layer (Apply ≡ VerifyAll) enforced over the whole change-op
// alphabet instead of a handful of hand-written streams; the seed corpus
// covers every op on every fuzzed network. Transaction modes ride on the
// op byte's high bits: Propose+Rollback detours must leave no residue in
// the session state (the scratch comparison would catch any), and
// Propose+Commit must be indistinguishable from a direct Apply.
//
// Two identical networks are built per run — sessions own their networks
// and the targets mirror what was handed over (FIBUpdate swaps the
// provider, an ACL edit swaps in an edited clone), so the one-at-a-time
// and the batched session must not share one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// fuzzTarget materializes decoded ops as change-sets over one owned
// network. The one-at-a-time and the batched lane get their own target;
// toggle state is keyed deterministically on the op bytes, so the two
// targets stay in lock-step. probe builds a change-set that leaves the
// target's mirror untouched, for transactional detours: it is only ever
// proposed and rolled back, never committed.
type fuzzTarget interface {
	changes(op, arg byte) []incr.Change
	probe(arg byte) []incr.Change
	session() *incr.Session
}

// --- datacenter target ---

type dcTarget struct {
	d       *bench.Datacenter
	sess    *incr.Session
	base    func(topo.FailureScenario) tf.FIB
	overlay map[topo.NodeID][]tf.Rule
	down    map[topo.NodeID]bool
	probes  map[string]bool
	relab   map[topo.NodeID]bool
	// boxes holds the models the box toggle unbinds and binds back, as
	// first bound; unbound the nodes it left without one.
	boxes   map[topo.NodeID]mbox.Model
	unbound map[topo.NodeID]bool
}

func newDCTarget(t *testing.T, withCaches bool, sopts incr.Options) *dcTarget {
	t.Helper()
	groups := 3
	if withCaches {
		groups = 2
	}
	d := bench.NewDatacenter(bench.DCConfig{Groups: groups, HostsPerGroup: 1, WithCaches: withCaches})
	var invs []inv.Invariant
	if withCaches {
		invs = []inv.Invariant{d.DataIsolationInvariant(0), d.IsolationInvariant(0, 1)}
	} else {
		invs = d.AllIsolationInvariants()
	}
	sess, _, err := incr.NewSession(d.Net, core.Options{Engine: core.EngineSAT}, invs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	return &dcTarget{
		d: d, sess: sess,
		base:    d.Net.FIBFor, // captured before any FIBUpdate swaps the provider
		overlay: map[topo.NodeID][]tf.Rule{},
		down:    map[topo.NodeID]bool{},
		probes:  map[string]bool{},
		relab:   map[topo.NodeID]bool{},
		boxes:   map[topo.NodeID]mbox.Model{d.IDS2: boxAt(d.Net, d.IDS2), d.FW2: boxAt(d.Net, d.FW2)},
		unbound: map[topo.NodeID]bool{},
	}
}

func (f *dcTarget) session() *incr.Session { return f.sess }

func (f *dcTarget) fibUpdate() incr.Change {
	return incr.FIBUpdate(overlayFIBFor(f.base, f.overlay))
}

// toggleACLHead returns a clone of fw with its head entry popped when it
// equals e, and e prepended otherwise — a deterministic toggle that stays
// consistent no matter how ops interleave.
func toggleACLHead(fw *mbox.LearningFirewall, e mbox.ACLEntry) *mbox.LearningFirewall {
	fw = cloneFirewall(fw)
	if len(fw.ACL) > 0 && fw.ACL[0] == e {
		fw.ACL = fw.ACL[1:]
	} else {
		fw.ACL = append([]mbox.ACLEntry{e}, fw.ACL...)
	}
	return fw
}

func (f *dcTarget) changes(op, arg byte) []incr.Change {
	d := f.d
	G := d.Cfg.Groups
	g := int(arg) % G
	// Bytes with op&15 == 8 toggle a box binding; every other byte means
	// what op%8 names, the alphabet the checked-in corpus was found with.
	if op&15 == 8 { // a box unbound, and bound back to its first model
		n := []topo.NodeID{d.IDS2, d.FW2}[int(arg)%2]
		if f.unbound[n] {
			delete(f.unbound, n)
			return []incr.Change{incr.BoxSwap(n, f.boxes[n])}
		}
		f.unbound[n] = true
		return []incr.Change{incr.BoxRemove(n)}
	}
	switch op % 8 {
	case 0: // liveness toggle over hosts, firewalls, IDSes and a ToR
		cand := []topo.NodeID{d.Hosts[0][0], d.Hosts[1][0], d.FW1, d.FW2, d.IDS1, d.ToR[0]}
		n := cand[int(arg)%len(cand)]
		if f.down[n] {
			delete(f.down, n)
			return []incr.Change{incr.NodeUp(n)}
		}
		f.down[n] = true
		return []incr.Change{incr.NodeDown(n)}
	case 1: // shared-aggregation shadow rule toggle (prefix-level showcase).
		// Priority 9 sits below the catch-all steering default (10): the
		// rule changes the matching subsequence for group g's atoms —
		// dirtying exactly the reading checks — without ever rerouting
		// (routing INTO a box that a liveness op may have failed would
		// leave the walk outside slice closure).
		r := tf.Rule{Match: bench.ClientPrefix(g), In: topo.NodeNone, Out: d.FW1, Priority: 9}
		if len(f.overlay[d.Agg]) > 0 {
			delete(f.overlay, d.Agg)
		} else {
			f.overlay[d.Agg] = []tf.Rule{r}
		}
		return []incr.Change{f.fibUpdate()}
	case 2: // more-specific rule over a covering default at a ToR (negative read)
		tor := d.ToR[g]
		r := tf.Rule{Match: bench.ClientPrefix((g + 1) % G), In: topo.NodeNone, Out: d.Agg, Priority: 20}
		if len(f.overlay[tor]) > 0 {
			delete(f.overlay, tor)
		} else {
			f.overlay[tor] = []tf.Rule{r}
		}
		return []incr.Change{f.fibUpdate()}
	case 3: // live per-pair ACL entry toggle on the primary firewall
		a, b := g, (g+1)%G
		d.FWPrimary = toggleACLHead(d.FWPrimary, mbox.DenyEntry(bench.ClientPrefix(a), bench.ClientPrefix(b)))
		return []incr.Change{incr.BoxSwap(d.FW1, d.FWPrimary)}
	case 4: // dead ACL entry toggle (must dirty nothing at prefix level)
		deadPfx := pkt.Prefix{Addr: pkt.MustParseAddr("10.99.0.0"), Len: 24}
		d.FWPrimary = toggleACLHead(d.FWPrimary, mbox.DenyEntry(deadPfx, deadPfx))
		return []incr.Change{incr.BoxSwap(d.FW1, d.FWPrimary)}
	case 5: // policy relabel toggle (fresh singleton class and back)
		h := d.Hosts[g][0]
		if f.relab[h] {
			delete(f.relab, h)
			return []incr.Change{incr.Relabel(h, "")}
		}
		f.relab[h] = true
		return []incr.Change{incr.Relabel(h, fmt.Sprintf("fz-%d", g))}
	case 6: // invariant add/remove toggle
		a, b := g, (g+1)%G
		// A label with every kind of character encoding/json escapes.
		label := fmt.Sprintf("probe-%d-%d <&\"\\\u2028\xff", a, b)
		if f.probes[label] {
			delete(f.probes, label)
			return []incr.Change{incr.RemoveInvariant(label)}
		}
		f.probes[label] = true
		return []incr.Change{incr.AddInvariant(inv.Reachability{
			Dst: d.Hosts[b][0], SrcAddr: bench.HostAddr(a, 0), Label: label,
		})}
	default: // noop refresh
		return nil
	}
}

// probe builds pure transactional change-sets: every model is a fresh
// clone and no mirror state is touched, so a Propose/Rollback pair must
// leave the session bit-identical to never having proposed.
func (f *dcTarget) probe(arg byte) []incr.Change {
	d := f.d
	g := int(arg) % d.Cfg.Groups
	switch arg % 5 {
	case 0: // violating: punch an allow hole above the isolation denies
		fw := cloneFirewall(d.FWPrimary)
		fw.ACL = append([]mbox.ACLEntry{
			mbox.AllowEntry(bench.ClientPrefix(g), bench.ClientPrefix((g+1)%d.Cfg.Groups)),
		}, fw.ACL...)
		return []incr.Change{incr.BoxSwap(d.FW1, fw)}
	case 1: // topology-only: lose firewall redundancy (always verifiable,
		// unlike a ToR failure whose reroute can escape slice closure)
		return []incr.Change{incr.NodeDown(d.FW2)}
	case 2: // mixed relabel + liveness
		return []incr.Change{incr.Relabel(d.Hosts[g][0], "probe-class"), incr.NodeDown(d.IDS1)}
	case 3: // the IDS's box out and back in, as the last box
		return []incr.Change{incr.BoxRemove(d.IDS2), incr.BoxSwap(d.IDS2, boxAt(d.Net, d.IDS2))}
	default: // an invariant in, and another out
		return []incr.Change{
			incr.AddInvariant(inv.Reachability{Dst: d.Hosts[g][0], SrcAddr: bench.HostAddr((g+1)%d.Cfg.Groups, 0), Label: "probe-tx"}),
			incr.RemoveInvariant(d.IsolationInvariant(g, (g+1)%d.Cfg.Groups).Name()),
		}
	}
}

// boxAt is the model bound at n in net, nil when none is.
func boxAt(net *core.Network, n topo.NodeID) mbox.Model {
	for _, b := range net.Boxes {
		if b.Node == n {
			return b.Model
		}
	}
	return nil
}

// --- multitenant target ---

type mtTarget struct {
	m       *bench.MultiTenant
	sess    *incr.Session
	base    func(topo.FailureScenario) tf.FIB
	overlay map[topo.NodeID][]tf.Rule
	down    map[topo.NodeID]bool
	probes  map[string]bool
}

func newMTTarget(t *testing.T, sopts incr.Options) *mtTarget {
	t.Helper()
	const T = 2
	m := bench.NewMultiTenant(bench.MTConfig{Tenants: T, PubPerTenant: 1, PrivPerTenant: 1})
	for tn := 0; tn < T; tn++ {
		for _, vm := range m.PubVMs[tn] {
			m.Net.PolicyClass[vm] = fmt.Sprintf("pub-%d", tn)
		}
		for _, vm := range m.PrivVMs[tn] {
			m.Net.PolicyClass[vm] = fmt.Sprintf("priv-%d", tn)
		}
	}
	var invs []inv.Invariant
	for a := 0; a < T; a++ {
		for b := 0; b < T; b++ {
			if a != b {
				invs = append(invs, m.PrivPrivInvariant(a, b), m.PubPrivInvariant(a, b), m.PrivPubInvariant(a, b))
			}
		}
	}
	sess, _, err := incr.NewSession(m.Net, core.Options{Engine: core.EngineSAT}, invs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	return &mtTarget{
		m: m, sess: sess,
		base:    m.Net.FIBFor,
		overlay: map[topo.NodeID][]tf.Rule{},
		down:    map[topo.NodeID]bool{},
		probes:  map[string]bool{},
	}
}

func (f *mtTarget) session() *incr.Session { return f.sess }

func (f *mtTarget) changes(op, arg byte) []incr.Change {
	m := f.m
	T := m.Cfg.Tenants
	tn := int(arg) % T
	switch op % 5 {
	case 0: // VM / firewall liveness toggle
		cand := []topo.NodeID{m.PrivVMs[0][0], m.PubVMs[1][0], m.VSwitchFW[0], m.VSwitchFW[1]}
		n := cand[int(arg)%len(cand)]
		if f.down[n] {
			delete(f.down, n)
			return []incr.Change{incr.NodeUp(n)}
		}
		f.down[n] = true
		return []incr.Change{incr.NodeDown(n)}
	case 1: // shared-fabric steering rule toggle
		r := tf.Rule{Match: bench.TenantPrefix(tn), In: topo.NodeNone, Out: m.VSwitchFW[tn], Priority: 11}
		if len(f.overlay[m.Fabric]) > 0 {
			delete(f.overlay, m.Fabric)
		} else {
			f.overlay[m.Fabric] = []tf.Rule{r}
		}
		return []incr.Change{incr.FIBUpdate(overlayFIBFor(f.base, f.overlay))}
	case 2: // per-tenant firewall shadow entry toggle
		m.Firewalls[tn] = toggleACLHead(m.Firewalls[tn],
			mbox.AllowEntry(bench.TenantPrivPrefix(tn), bench.TenantPrivPrefix(tn)))
		return []incr.Change{incr.BoxSwap(m.VSwitchFW[tn], m.Firewalls[tn])}
	case 3: // invariant add/remove toggle
		label := fmt.Sprintf("probe-%d", tn)
		if f.probes[label] {
			delete(f.probes, label)
			return []incr.Change{incr.RemoveInvariant(label)}
		}
		f.probes[label] = true
		return []incr.Change{incr.AddInvariant(inv.Reachability{
			Dst: m.PubVMs[tn][0], SrcAddr: bench.PrivVMAddr((tn+1)%T, 0), Label: label,
		})}
	default: // noop refresh
		return nil
	}
}

// probe builds pure transactional change-sets (see dcTarget.probe).
func (f *mtTarget) probe(arg byte) []incr.Change {
	m := f.m
	tn := int(arg) % m.Cfg.Tenants
	switch arg % 2 {
	case 0: // violating: open the tenant's private prefix to everyone
		fw := cloneFirewall(m.Firewalls[tn])
		fw.ACL = append([]mbox.ACLEntry{
			mbox.AllowEntry(pkt.Prefix{}, bench.TenantPrivPrefix(tn)),
		}, fw.ACL...)
		return []incr.Change{incr.BoxSwap(m.VSwitchFW[tn], fw)}
	default: // topology-only: fail a public VM
		return []incr.Change{incr.NodeDown(m.PubVMs[tn][0])}
	}
}

// --- cloud-VPC target ---

// vpcTarget is the one network whose INITIAL invariant set has multi-member
// symmetry groups (same-shape tenants), so a group's representative can
// leave it: the next member must then be verified on its own slice, not
// inherit the departed one's verdicts and footprint.
type vpcTarget struct {
	net  *core.Network
	sess *incr.Session
	// reach is the pub-reach group as the session holds it, representative
	// first; gone is the member currently removed (nil when all are in).
	reach []inv.Invariant
	gone  inv.Invariant
	down  map[topo.NodeID]bool
}

const vpcTenants = 3

func newVPCTarget(t *testing.T, opts core.Options, sopts incr.Options) *vpcTarget {
	t.Helper()
	net, invs, err := netdesc.Build(netdesc.CloudVPC(netdesc.VPCConfig{Tenants: vpcTenants, Shapes: 1}), "")
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := incr.NewSession(net, opts, invs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	f := &vpcTarget{net: net, sess: sess, down: map[topo.NodeID]bool{}}
	for _, i := range invs {
		if _, ok := i.(inv.Reachability); ok {
			f.reach = append(f.reach, i)
		}
	}
	return f
}

func (f *vpcTarget) session() *incr.Session { return f.sess }

func (f *vpcTarget) firewall(arg byte) topo.NodeID {
	return f.net.Topo.MustByName(fmt.Sprintf("t%d-fw", int(arg)%vpcTenants)).ID
}

func (f *vpcTarget) changes(op, arg byte) []incr.Change {
	// As on the datacenter: op&15 == 8 is the box step, and every other
	// byte means what op%3 names.
	if op&15 == 8 { // a tenant firewall unbound and bound back, as the last
		// box, in one step: the explicit engine refuses a firewall without
		// a model on the path, so the batched lane sees the pairs coalesce
		fw := f.firewall(arg)
		return []incr.Change{incr.BoxRemove(fw), incr.BoxSwap(fw, boxAt(f.net, fw))}
	}
	switch op % 3 {
	case 0: // tenant firewall liveness toggle: flips that tenant's reachability
		n := f.firewall(arg)
		if f.down[n] {
			delete(f.down, n)
			return []incr.Change{incr.NodeUp(n)}
		}
		f.down[n] = true
		return []incr.Change{incr.NodeDown(n)}
	case 1: // representative toggle: the group's current first member leaves,
		// and comes back (as its last member) on the next toggle
		if back := f.gone; back != nil {
			f.gone, f.reach = nil, append(f.reach, back)
			return []incr.Change{incr.AddInvariant(back)}
		}
		f.gone, f.reach = f.reach[0], f.reach[1:]
		return []incr.Change{incr.RemoveInvariant(f.gone.Name())}
	default: // noop refresh
		return nil
	}
}

// probe builds pure transactional change-sets (see dcTarget.probe).
func (f *vpcTarget) probe(arg byte) []incr.Change {
	fw := f.firewall(arg)
	switch arg % 4 {
	case 1: // the firewall's box out and back in, as the last box
		return []incr.Change{incr.BoxRemove(fw), incr.BoxSwap(fw, boxAt(f.net, fw))}
	case 2: // a member out of its class, and the group's representative gone
		pub := f.net.Topo.MustByName(fmt.Sprintf("t%d-pub", int(arg)%vpcTenants)).ID
		return []incr.Change{incr.Relabel(pub, "probe-class"), incr.RemoveInvariant(f.reach[0].Name())}
	case 3: // the representative out, and back in as the last member
		return []incr.Change{incr.RemoveInvariant(f.reach[0].Name()), incr.AddInvariant(f.reach[0])}
	default:
		return []incr.Change{incr.NodeDown(fw)}
	}
}

// maxFuzzOps bounds the per-input change stream (every op costs two
// Applies plus a from-scratch VerifyAll).
const maxFuzzOps = 6

// compareWitnesses extends compareReports to the violation traces: the
// acceptance bar is bit-identical verdicts AND witnesses.
func compareWitnesses(t *testing.T, step string, got, want []core.Report) {
	t.Helper()
	for i := range got {
		g, w := got[i], want[i]
		if len(g.Result.Trace) != len(w.Result.Trace) {
			t.Fatalf("%s: report %d (%s) trace length mismatch: %d vs %d",
				step, i, g.Invariant.Name(), len(g.Result.Trace), len(w.Result.Trace))
		}
		for j := range g.Result.Trace {
			if g.Result.Trace[j].String() != w.Result.Trace[j].String() {
				t.Fatalf("%s: report %d (%s) witness event %d mismatch: %v vs %v",
					step, i, g.Invariant.Name(), j, g.Result.Trace[j], w.Result.Trace[j])
			}
		}
	}
}

// checkLine demands that the session's spliced result line equal the line
// json.Encoder writes for EncodeResult over the same reports, and that the
// Propose baseline tally read off the group table equal the one counted
// from the assembled reports.
func checkLine(t *testing.T, step string, s *incr.Session, reports []core.Report) {
	t.Helper()
	want, err := json.Marshal(incr.EncodeResult(s.Network().Topo, s.LastApply(), reports))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.AppendResult(nil, "", false); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%s: spliced result line differs\n--- got ---\n%s--- want ---\n%s", step, got, want)
	}
	if table, assembled := s.UnsatTallies(); !reflect.DeepEqual(table, assembled) {
		t.Fatalf("%s: unsatisfied tallies differ: table %v, assembled %v", step, table, assembled)
	}
}

// checkGroups demands that the session's groups be the ones
// symmetry.Groups gives from scratch.
func checkGroups(t *testing.T, step string, s *incr.Session) {
	t.Helper()
	if err := s.GroupsAgree(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// checkProposeLine is checkLine for the pending proposal's line.
func checkProposeLine(t *testing.T, step string, s *incr.Session, changes []incr.Change, pr *incr.ProposeResult) {
	t.Helper()
	want, err := json.Marshal(incr.EncodeProposeResult(s.Network().Topo, "p", changes, pr))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.AppendProposeResult(nil, "p"); !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%s: spliced propose line differs\n--- got ---\n%s--- want ---\n%s", step, got, want)
	}
}

// FuzzSessionDifferential is the differential churn fuzzer (see the file
// comment). data[0] selects the network, the rest decodes as (op, arg)
// pairs. The op byte's low bits pick the change kind; its high two bits
// pick a transaction mode for the step:
//
//	mode 1: before applying, Propose a pure probe and
//	        Roll it back (plus ordering-error assertions). Any leak of
//	        session state into later steps — network, liveness,
//	        invariants, verdicts, witnesses — then surfaces in the
//	        lockstep/scratch comparisons for this and later steps. The
//	        verdicts the probe verified stay cached by design.
//	mode 2: drive the step's change-set through Propose+Commit instead
//	        of Apply; committed state must still match the from-scratch
//	        baseline bit-identically.
//	mode 3: apply through the daemon's call (AppendApply), whose line
//	        must be the one EncodeResult renders for the reports ApplyID
//	        would have returned.
//
// A second session consumes the SAME change
// stream through ApplyBatch: steps accumulate and flush at boundaries
// derived from the input bytes, so random streams get random batch
// partitions — and at every batch boundary the batched session's verdicts
// and witnesses must be bit-identical to the one-at-a-time session's.
// After every step each session's spliced reply line must equal the one
// EncodeResult (EncodeProposeResult for a proposal) renders, and its
// groups the ones symmetry.Groups gives from scratch — after a Propose
// and its Rollback too.
// This is the coalescing soundness bar: batching may only move WHERE
// verification happens, never what it concludes. After the first
// sequential apply error the batched lane goes dead for the rest of the
// input: a failed step leaves partial sequential state that a batch
// (which aborts atomically) cannot replicate.
func FuzzSessionDifferential(f *testing.F) {
	// Seed corpus: every op kind on every network, plus mixed streams
	// (toggle on/off, negative-read then liveness, relabel then revert)
	// and transactional streams (propose/rollback detours, propose+commit
	// replacing apply).
	for net := byte(0); net < 4; net++ {
		for op := byte(0); op < 9; op++ {
			f.Add([]byte{net, op, 0})
		}
		f.Add([]byte{net, 1, 0, 1, 0, 0, 2})                             // overlay on/off around a liveness toggle
		f.Add([]byte{net, 3, 1, 6, 0, 3, 1, 5, 2})                       // ACL + invariant churn + relabel
		f.Add([]byte{net, 2, 0, 4, 0, 2, 0, 7, 0})                       // negative read + dead entry + revert
		f.Add([]byte{net, 0, 2, 0, 2, 1, 1, 0, 2})                       // down/up + overlay under liveness
		f.Add([]byte{net, 64 + 1, 0, 64 + 3, 1, 0, 2})                   // rollback detours (violating + topology probes) around churn
		f.Add([]byte{net, 128 + 0, 1, 128 + 5, 0, 128 + 6, 1})           // propose+commit path for pure change-sets
		f.Add([]byte{net, 64 + 0, 2, 128 + 1, 0, 64 + 2, 1, 128 + 0, 2}) // mixed tx modes
		f.Add([]byte{net, 1, 1, 1, 1, 1, 1, 2, 2})                       // repeated overlay toggles: heavy FIB coalescing in one batch
		f.Add([]byte{net, 3, 2, 3, 2, 0, 1, 4, 1, 3, 2})                 // ACL toggle pairs annihilating inside a batch
		f.Add([]byte{net, 192 + 5, 0, 192 + 6, 1, 192 + 0, 2})           // the daemon's apply call: relabel, invariant, liveness
	}
	// The representative leaves its group, then the next member's slice is
	// edited — and again through Propose+Commit, and with the member back.
	f.Add([]byte{3, 1, 0, 0, 1})
	f.Add([]byte{3, 128 + 1, 0, 128 + 0, 1, 128 + 1, 0, 128 + 0, 2})
	// Box and invariant probes rolled back on every network, and every VPC
	// probe around a representative toggle.
	for net := byte(0); net < 4; net++ {
		f.Add([]byte{net, 64 + 7, 3, 64 + 7, 4, 64 + 6, 8})
	}
	f.Add([]byte{3, 64 + 2, 1, 64 + 2, 2, 64 + 1, 3, 64 + 2, 0})
	// Box binds in the batched lane: an unbind, bind and unbind of one box
	// inside one batch, then an unbind flushed alone (by a noop step)
	// before a bind and an unbind inside the next. On the VPC, three
	// out-and-back-in steps inside one batch.
	for _, net := range []byte{0, 2} {
		f.Add([]byte{net, 8, 0, 8, 0, 8, 0})
		f.Add([]byte{net, 8, 0, 7, 2, 8, 0, 8, 0})
	}
	f.Add([]byte{3, 8, 0, 8, 0, 8, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		sel := data[0] % 4
		opts := core.Options{Engine: core.EngineSAT}
		if sel == 3 {
			opts = core.Options{} // the VPC's NAT gateway needs the explicit engine
		}
		mk := func(sopts incr.Options) fuzzTarget {
			switch sel {
			case 1:
				return newMTTarget(t, sopts)
			case 3:
				return newVPCTarget(t, opts, sopts)
			case 2:
				return newDCTarget(t, true, sopts) // with caches: origin-agnostic paths
			default:
				return newDCTarget(t, false, sopts)
			}
		}
		single := mk(incr.Options{})
		// The batched lane: an independent target (sessions own their
		// networks and mirror state) fed the same op stream, applied in
		// input-derived batches instead of one change-set per step.
		batch := mk(incr.Options{})
		var pend []incr.Change
		batchDead := false

		// applyTx drives one step through Propose+Commit in mode 2;
		// committed state must be undistinguishable from a direct Apply. A
		// failed Propose never poisons the session, so a plain Apply then
		// surfaces the same error as today.
		applyTx := func(step string, s *incr.Session, cs []incr.Change, mode byte) ([]core.Report, error) {
			switch mode {
			case 2:
				if pr, err := s.Propose(cs); err == nil {
					checkProposeLine(t, step, s, cs, pr)
					checkGroups(t, step+" [proposed]", s)
					return s.Commit()
				}
			case 3:
				line, err := s.AppendApply(nil, "", cs, false)
				if err != nil {
					return nil, err
				}
				reports := s.CurrentReports()
				want, err := json.Marshal(incr.EncodeResult(s.Network().Topo, s.LastApply(), reports))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(line, append(want, '\n')) {
					t.Fatalf("%s: the daemon's apply line differs\n--- got ---\n%s--- want ---\n%s", step, line, want)
				}
				return reports, nil
			}
			return s.Apply(cs)
		}
		// detour runs a pure probe through Propose+Rollback with the full
		// ordering-error alphabet; any residue is caught by the scratch
		// comparison after the step's real change.
		detour := func(step string, tgt fuzzTarget, arg byte, settled bool) {
			s := tgt.session()
			probe := tgt.probe(arg)
			sigs := s.Signatures()
			pr, err := s.Propose(probe)
			if err == nil {
				if pr == nil {
					t.Fatalf("%s: Propose returned nil result without error", step)
				}
				checkProposeLine(t, step, s, probe, pr)
				checkGroups(t, step+" [proposed]", s)
				if _, err2 := s.Propose(nil); err2 != incr.ErrProposePending {
					t.Fatalf("%s: double propose: got %v, want ErrProposePending", step, err2)
				}
				if _, err2 := s.Apply(nil); err2 != incr.ErrProposePending {
					t.Fatalf("%s: apply while pending: got %v, want ErrProposePending", step, err2)
				}
				if err2 := s.Rollback(); err2 != nil {
					t.Fatalf("%s: rollback of pending propose failed: %v", step, err2)
				}
			}
			checkGroups(t, step+" [rolled back]", s)
			// After a failed Apply the Propose re-verifies first, which
			// re-signs every invariant.
			if got := s.Signatures(); settled && !reflect.DeepEqual(got, sigs) {
				t.Fatalf("%s: signatures moved across a rollback:\n got %q\nwant %q", step, got, sigs)
			}
			if err2 := s.Rollback(); err2 != incr.ErrNoPropose {
				t.Fatalf("%s: rollback without propose: got %v, want ErrNoPropose", step, err2)
			}
			if _, err2 := s.Commit(); err2 != incr.ErrNoPropose {
				t.Fatalf("%s: commit without propose: got %v, want ErrNoPropose", step, err2)
			}
		}

		ops := data[1:]
		settled := true // the last step's Apply succeeded
		for i := 0; i+1 < len(ops) && i/2 < maxFuzzOps; i += 2 {
			op, arg := ops[i], ops[i+1]
			mode := op >> 6
			step := fmt.Sprintf("net %d step %d (op %d arg %d mode %d)", sel, i/2, op, arg, mode)

			if mode == 1 {
				detour(step+" [detour]", single, arg, settled)
			}

			if !batchDead {
				// Mirror the step into the batched lane's pending window;
				// the session hears about it at the flush — exactly the
				// apply_batch contract.
				pend = append(pend, batch.changes(op, arg)...)
			}

			got, err := applyTx(step, single.session(), single.changes(op, arg), mode)
			if settled = err == nil; !settled {
				// Fuzzing can assemble configurations the engines reject
				// incrementally and from scratch alike (e.g. steering
				// into a failed middlebox that slice closure cannot
				// reach). The session has dropped its incremental state
				// and recovers on the next Apply. The batched lane
				// cannot replicate a partial failure and goes dead.
				batchDead = true
				continue
			}

			want := baseline(t, single.session(), opts, true)
			compareReports(t, step+" [vs scratch]", got, want)
			compareWitnesses(t, step+" [vs scratch]", got, want)
			checkLine(t, step, single.session(), got)
			checkGroups(t, step, single.session())

			// Flush the batched lane at input-derived boundaries and at the
			// end of the stream, and demand bit-identical verdicts AND
			// witnesses against the one-at-a-time sessions.
			last := !(i+3 < len(ops) && i/2+1 < maxFuzzOps)
			if !batchDead && ((int(op)+int(arg))%3 == 0 || last) {
				gotB, errB := batch.session().ApplyBatch(pend)
				if errB != nil {
					t.Fatalf("%s: batched apply failed where sequential succeeded: %v", step, errB)
				}
				pend = pend[:0]
				compareReports(t, step+" [batch vs sequential]", gotB, got)
				compareWitnesses(t, step+" [batch vs sequential]", gotB, got)
				checkLine(t, step+" [batch]", batch.session(), gotB)
				checkGroups(t, step+" [batch]", batch.session())
			}
		}
	})
}

// fuzzDecodePure is the one decode fuzz target: an arbitrary input line
// must decode or fail cleanly through every decode entry point — never
// panic, never return changes beside an error, never decode a
// reconfiguration without its model — and must leave netdesc.FromNetwork's canonical
// dump of the live network byte-identical. Decoding is pure; only
// Session.mutate may change the network.
func fuzzDecodePure(f *testing.F, seeds []string) {
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	d := bench.NewDatacenter(bench.DCConfig{Groups: 2, HostsPerGroup: 1})
	want := canonicalDump(f, d.Net, d.AllIsolationInvariants())
	f.Fuzz(func(t *testing.T, line []byte) {
		changes, err := incr.DecodeChangeSet(d.Net, line)
		if err != nil && changes != nil {
			t.Fatalf("decode returned changes alongside error %v", err)
		}
		var wires []incr.WireChange
		if json.Unmarshal(line, &wires) == nil {
			if changes, err := incr.DecodeChanges(d.Net, wires); err != nil && changes != nil {
				t.Fatalf("decode returned changes alongside error %v", err)
			}
			changes, err := incr.DecodeProposeSet(d.Net, wires)
			if err != nil && changes != nil {
				t.Fatalf("propose decode returned changes alongside error %v", err)
			}
		}
		for _, ch := range changes {
			if ch.Kind == incr.KindBoxReconfig && ch.Model == nil {
				t.Fatal("decode produced a reconfiguration without its model")
			}
		}
		if got := canonicalDump(t, d.Net, d.AllIsolationInvariants()); !bytes.Equal(got, want) {
			t.Fatalf("decoding %q changed the live network\n--- got ---\n%s\n--- want ---\n%s", line, got, want)
		}
	})
}

// canonicalDump renders a network and invariant set in netdesc's canonical
// byte form: equal dumps are equal networks, for everything a description
// can say.
func canonicalDump(t testing.TB, net *core.Network, invs []inv.Invariant) []byte {
	t.Helper()
	desc, err := netdesc.FromNetwork("dump", net, invs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := netdesc.Encode(desc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeChangeSet is fuzzDecodePure seeded with wire lines, one per op.
func FuzzDecodeChangeSet(f *testing.F) {
	fuzzDecodePure(f, []string{
		`{"op":"node_down","node":"fw1"}`,
		`{"op":"node_up","node":"h0-0"}`,
		`{"op":"relabel","node":"h0-0","class":"x"}`,
		`{"op":"fw_allow","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}`,
		`{"op":"fw_deny","node":"fw1","src":"*","dst":"10.1.0.1"}`,
		`{"op":"fw_del","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}`,
		`{"op":"box_reconfig","node":"fw2"}`,
		`{"op":"box_remove","node":"ids2"}`,
		`{"op":"inv_add","invariant":{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1"}}`,
		`{"op":"inv_add","invariant":{"type":"traversal","dst":"h1-0","src_prefix":"10.0.0.0/24","src_addr":"10.0.0.1","vias":["ids1"]}}`,
		`{"op":"inv_remove","name":"x"}`,
		`{"op":"noop"}`,
		`[{"op":"noop"},{"op":"node_down","node":"fw1"}]`,
		`not json`,
		`{"op":`,
		`{"op":"box_state","node":"fw1","box":{"type":"firewall","acl":[{"action":"allow","src":"10.0.0.77/24","dst":"*"}]}}`,
		`{"op":"box_state","node":"ids1","box":{"type":"appfirewall","blocked":["never-registered"]}}`,
		`{"op":"box_state","node":"fw1","box":{"type":"mdl","bundle":"/etc/passwd"}}`,
		`[{"op":"box_remove","node":"ids2"},{"op":"box_state","node":"ids2","box":{"type":"idps"}}]`,
		`{"op":"box_state","node":"h0-0","box":{"type":"idps"}}`,
	})
}

// FuzzDecodeProposeSet is the same target seeded with change arrays: the
// shape the apply_batch and propose envelopes carry. `make fuzz-smoke`
// fuzzes the body once, through FuzzDecodeChangeSet; these seeds run with
// the ordinary tests.
func FuzzDecodeProposeSet(f *testing.F) {
	fuzzDecodePure(f, []string{
		`[{"op":"fw_allow","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}]`,
		`[{"op":"fw_deny","node":"fw1","src":"*","dst":"10.1.0.1"},{"op":"fw_del","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}]`,
		`[{"op":"box_reconfig","node":"fw2"}]`,
		`[{"op":"node_down","node":"fw1"},{"op":"noop"}]`,
		`[{"op":"inv_remove","name":"x"},{"op":"relabel","node":"h0-0","class":"y"}]`,
		`[]`,
		`[{"op":"frobnicate"}]`,
		`[{"op":"box_state","node":"fw1","box":{"type":"firewall"}},{"op":"fw_allow","node":"fw1","src":"*","dst":"*"}]`,
	})
}

// FuzzDecodeRequest hardens the request-envelope parser the daemon runs
// on every input line — including the new introspection shapes (stats,
// trace, explain with group filters) and transaction envelopes: arbitrary
// bytes must parse into an envelope, be classified as a plain change-set
// line, or fail cleanly; never panic.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"op":"propose","id":"p1","changes":[{"op":"node_down","node":"fw1"}]}`,
		`{"op":"commit","id":"c1"}`,
		`{"op":"rollback","id":"r1"}`,
		`{"op":"stats","id":"s1"}`,
		`{"op":"trace","id":"t1"}`,
		`{"op":"explain"}`,
		`{"op":"explain","name":"simple|tier-1|tier-0"}`,
		`{"op":"propose","changes":"not an array"}`,
		`{"op":"node_down","node":"fw1"}`,
		`[{"op":"noop"}]`,
		`  `,
		`not json`,
		`{"op":`,
		`{"op":123}`,
		`{"op":"stats","id":{"nested":true}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		orig := append([]byte(nil), line...)
		req, envelope, err := incr.ParseRequest(line)
		if !bytes.Equal(line, orig) {
			t.Fatal("ParseRequest mutated its input")
		}
		if err != nil && envelope {
			t.Fatalf("error %v alongside a claimed envelope", err)
		}
		if !envelope && (req.Op != "" || req.Id != "" || req.Name != "" || req.Changes != nil) {
			t.Fatalf("non-envelope parse leaked fields: %+v", req)
		}
	})
}
