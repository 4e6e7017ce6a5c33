package incr_test

// An MDL-interpreted box is keyed like a native one: a k-tenant network
// whose per-tenant firewalls are the paper's Listing 1 gets the verdict
// cache, canonical classing and key-level dirtying, with verdicts and
// witnesses identical to solving every check from scratch in its own
// namespace. (Interpreted state is not SAT-encodable, so these checks run
// on the explicit engine: journey memoization and encoding reuse, which
// the exact key also feeds, never see them.) A set supplied as pre-rendered
// string keys has no renamable form: exact keys only, no canonical classes.

import (
	"fmt"
	"testing"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/mdl"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// Listing 1 from the paper, verbatim.
const listing1 = `
@FailClosed
class LearningFirewall (acl: Set[(Address, Address)]) {
  val established : Set[Flow]
  def model (p: Packet) = {
    when established.contains(flow(p)) =>
      forward (Seq(p))
    when acl.contains((p.src, p.dest)) =>
      established += flow(p)
      forward(Seq(p))
    _ =>
      forward(Seq.empty)
  }
}
`

const mdlTenants = 4

func tenantAddr(tn, i int) pkt.Addr { return pkt.Addr(10)<<24 | pkt.Addr(tn)<<16 | pkt.Addr(i+1) }

// tenantNet builds k tenants behind a shared fabric. Tenant tn has hosts a
// and b on a switch that hairpins everything through the tenant's firewall
// fw(tn, pairs), pairs being the (src, dst) flows the tenant admits: a may
// open flows to b, nothing else. Per tenant it checks that a reaches b
// (violated, with a witness), that a only hears replies from b, and that a
// never hears from the next tenant's a.
func tenantNet(k int, fw func(tn int, pairs [][2]pkt.Addr) mbox.Model) (*core.Network, []inv.Invariant, []topo.NodeID) {
	t := topo.New()
	fab := t.AddSwitch("fabric")
	fib := tf.FIB{}
	net := &core.Network{Topo: t, Registry: pkt.NewRegistry(), PolicyClass: map[topo.NodeID]string{}}
	var as, fws []topo.NodeID
	var invs []inv.Invariant
	for tn := 0; tn < k; tn++ {
		sw := t.AddSwitch(fmt.Sprintf("sw%d", tn))
		box := t.AddMiddlebox(fmt.Sprintf("fw%d", tn), "firewall")
		t.AddLink(sw, box)
		t.AddLink(box, fab)
		pfx := pkt.Prefix{Addr: tenantAddr(tn, -1), Len: 16}
		fib.Add(box, tf.Rule{Match: pfx, In: topo.NodeNone, Out: sw, Priority: 10})
		fib.Add(box, tf.Rule{Match: pkt.Prefix{}, In: topo.NodeNone, Out: fab, Priority: 5})
		fib.Add(fab, tf.Rule{Match: pfx, In: topo.NodeNone, Out: box, Priority: 10})
		fib.Add(sw, tf.Rule{Match: pkt.Prefix{}, In: topo.NodeNone, Out: box, Priority: 1})
		var hosts [2]topo.NodeID
		for i, class := range []string{"a", "b"} {
			hosts[i] = t.AddHost(fmt.Sprintf("%s%d", class, tn), tenantAddr(tn, i))
			t.AddLink(hosts[i], sw)
			net.PolicyClass[hosts[i]] = class
			fib.Add(sw, tf.Rule{Match: pkt.HostPrefix(tenantAddr(tn, i)), In: box, Out: hosts[i], Priority: 20})
		}
		net.Boxes = append(net.Boxes, mbox.Instance{Node: box,
			Model: fw(tn, [][2]pkt.Addr{{tenantAddr(tn, 0), tenantAddr(tn, 1)}})})
		as, fws = append(as, hosts[0]), append(fws, box)
		invs = append(invs,
			inv.Reachability{Dst: hosts[1], SrcAddr: tenantAddr(tn, 0), Label: fmt.Sprintf("a%d reaches b%d", tn, tn)},
			inv.FlowIsolation{Dst: hosts[0], SrcAddr: tenantAddr(tn, 1), Label: fmt.Sprintf("a%d only hears replies", tn)})
	}
	for tn := 0; tn < k; tn++ {
		invs = append(invs, inv.SimpleIsolation{Dst: as[tn], SrcAddr: tenantAddr((tn+1)%k, 0),
			Label: fmt.Sprintf("a%d never hears a%d", tn, (tn+1)%k)})
	}
	net.FIBFor = func(topo.FailureScenario) tf.FIB { return fib }
	return net, invs, fws
}

func mdlFirewall(t *testing.T, cls *mdl.Class, reg *pkt.Registry) func(int, [][2]pkt.Addr) mbox.Model {
	return func(tn int, pairs [][2]pkt.Addr) mbox.Model {
		m, err := mdl.Instantiate(cls, fmt.Sprintf("fw%d", tn), mdl.Config{"acl": pairs}, reg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

func nativeFirewall(tn int, pairs [][2]pkt.Addr) mbox.Model {
	fw := mbox.NewLearningFirewall(fmt.Sprintf("fw%d", tn))
	for _, p := range pairs {
		fw.ACL = append(fw.ACL, mbox.AllowEntry(pkt.HostPrefix(p[0]), pkt.HostPrefix(p[1])))
	}
	return fw
}

// verifyAll runs one from-scratch VerifyAll and returns the verifier with
// the reports.
func verifyAll(t *testing.T, net *core.Network, invs []inv.Invariant, opts core.Options) (*core.Verifier, []core.Report) {
	t.Helper()
	v, err := core.NewVerifier(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := v.VerifyAll(invs, false)
	if err != nil {
		t.Fatal(err)
	}
	return v, reports
}

func TestMDLBoxesAreKeyed(t *testing.T) {
	cls, err := mdl.Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{}
	plain := core.Options{NoCanon: true, NoSolverReuse: true}
	net, invs, fws := tenantNet(mdlTenants, mdlFirewall(t, cls, nil))

	// From scratch: canonical classing changes nothing but the work, and
	// the classes are the native twin's.
	_, want := verifyAll(t, net, invs, plain)
	v, got := verifyAll(t, net, invs, opts)
	compareReports(t, "mdl canon vs plain", got, want)
	compareWitnesses(t, "mdl canon vs plain", got, want)
	twinNet, twinInvs, _ := tenantNet(mdlTenants, nativeFirewall)
	twin, twinReports := verifyAll(t, twinNet, twinInvs, opts)
	compareReports(t, "mdl vs native twin", got, twinReports)
	classes, shared, _ := v.CanonStats()
	if twinClasses, twinShared, _ := twin.CanonStats(); classes != twinClasses || shared != twinShared || shared == 0 {
		t.Fatalf("mdl network formed %d classes (%d shared), native twin %d (%d shared)", classes, shared, twinClasses, twinShared)
	}

	// Incrementally, every invariant its own group.
	sess, reports, err := incr.NewSession(net, opts, invs, incr.Options{NoSymmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "session", reports, want)
	compareWitnesses(t, "session", reports, want)
	mdlFW := mdlFirewall(t, cls, nil)
	swap := func(step string, pairs [][2]pkt.Addr) incr.ApplyStats {
		t.Helper()
		reports, err := sess.Apply([]incr.Change{incr.BoxSwap(fws[0], mdlFW(0, pairs))})
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, step, reports, baseline(t, sess, plain, false))
		return sess.LastApply()
	}
	a0, b0 := tenantAddr(0, 0), tenantAddr(0, 1)
	// The same configuration announced again: the read key is unchanged,
	// so the groups over fw0 stay clean and nothing solves.
	if st := swap("same acl", [][2]pkt.Addr{{a0, b0}}); st.DirtyGroups != 0 || st.RefinedClean == 0 {
		t.Fatalf("re-announcing an unchanged MDL configuration: %+v", st)
	}
	// An edit re-verifies the checks whose slices hold fw0 — tenant 0's
	// own and the two isolation checks next to it — and no other tenant's.
	if st := swap("edited acl", [][2]pkt.Addr{{a0, b0}, {b0, a0}}); st.DirtyGroups != 4 || st.CacheMisses == 0 {
		t.Fatalf("editing tenant 0's acl: %+v", st)
	}
	// Reverting is answered from the verdict cache.
	if st := swap("reverted acl", [][2]pkt.Addr{{a0, b0}}); st.DirtyGroups != 4 || st.CacheMisses != 0 || st.CacheHits == 0 {
		t.Fatalf("reverting tenant 0's acl: %+v", st)
	}
	if tot := sess.TotalStats(); tot.CacheHits == 0 || tot.CanonShared == 0 {
		t.Fatalf("an MDL network must hit the verdict cache and share classes: %+v", tot)
	}

	// Pre-rendered keys: same verdicts, no canonical classes, and the
	// verdict cache still answers under the exact fingerprint.
	strNet, strInvs, _ := tenantNet(mdlTenants, func(tn int, pairs [][2]pkt.Addr) mbox.Model {
		var keys []string
		for _, p := range pairs {
			keys = append(keys, fmt.Sprintf("(%s,%s)", p[0], p[1]))
		}
		return mdl.MustInstantiate(cls, fmt.Sprintf("fw%d", tn), mdl.Config{"acl": keys}, nil)
	})
	sv, strReports := verifyAll(t, strNet, strInvs, opts)
	compareReports(t, "string-key sets", strReports, want)
	compareWitnesses(t, "string-key sets", strReports, want)
	if classes, shared, _ := sv.CanonStats(); classes != 0 || shared != 0 {
		t.Fatalf("string-key sets cannot be renamed, yet formed %d classes (%d shared)", classes, shared)
	}
	strSess, _, err := incr.NewSession(strNet, opts, strInvs, incr.Options{NoSymmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strSess.Apply([]incr.Change{incr.NodeDown(fws[0]), incr.NodeUp(fws[0])}); err != nil {
		t.Fatal(err)
	}
	if st := strSess.LastApply(); st.DirtyGroups != 4 || st.CacheMisses != 0 || st.CanonHits != 0 {
		t.Fatalf("string-key sets: a liveness flap must hit the exact cache: %+v", st)
	}
}
