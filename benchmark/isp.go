package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// ispSize is the backbone isp-route-serial updates: 592 nodes, 255
// invariants. The generator emits invalid addresses above 255 subnets.
var ispSize = netdesc.ISPBackboneConfig{Peerings: 16, Subnets: 255}

const (
	// serialChunk is how many updates are generated at a time, outside the
	// timer. A chunk's tables are materialised when it is generated, ~40 KB an
	// update, so the chunk is kept small: the harness's own garbage must not be
	// what peak_rss_mb measures, nor what paces the collector inside the timed
	// region.
	serialChunk = 250
	// checkEvery is how many serial updates pass between from-scratch checks.
	checkEvery = 1000
	// activeRoutes is the overlay's steady size: the stream alternates
	// announce and withdraw around it, so the backbone's table — and with it
	// the per-update cost — does not drift with stream length.
	activeRoutes = 128
)

// ispNet is the built backbone plus what the route generator needs of it.
type ispNet struct {
	net      *core.Network
	invs     []inv.Invariant
	base     tf.FIB
	backbone topo.NodeID
	fw       []topo.NodeID // fw0..fw15, next hops of external routes
	swC      []topo.NodeID // customer switches, by subnet
}

// buildISP is the in-process set-up path: description bytes → Decode → Build.
func buildISP(desc []byte) (*ispNet, error) {
	d, err := netdesc.Decode(desc, "isp.json")
	if err != nil {
		return nil, err
	}
	net, invs, err := netdesc.Build(d, "")
	if err != nil {
		return nil, err
	}
	n := &ispNet{net: net, invs: invs, base: net.FIBFor(topo.NoFailures())}
	byName := func(name string) topo.NodeID {
		node, ok := net.Topo.ByName(name)
		if !ok {
			panic("isp description lost node " + name) // generator and harness disagree: a bug
		}
		return node.ID
	}
	n.backbone = byName("backbone")
	for i := 0; i < ispSize.Peerings; i++ {
		n.fw = append(n.fw, byName(fmt.Sprintf("fw%d", i)))
	}
	for s := 0; s < ispSize.Subnets; s++ {
		n.swC = append(n.swC, byName(fmt.Sprintf("swC%d", s)))
	}
	return n, nil
}

func (n *ispNet) session() (*incr.Session, []core.Report, error) {
	return incr.NewSession(n.net, core.Options{}, n.invs, incr.Options{})
}

// fibSnapshot is the forwarding state after one update: the base tables with
// the backbone's rules replaced.
type fibSnapshot tf.FIB

func (s fibSnapshot) fibFor(topo.FailureScenario) tf.FIB { return tf.FIB(s) }

// routeKind classifies an announced prefix.
type routeKind int8

const (
	routeExternal routeKind = iota // unread external space: no slice reads it
	routeSpecific                  // more-specific inside a customer /16, off the read host
	routeOverride                  // covers a read customer host: resolution changes
)

// routeGen generates the BGP-like announce/withdraw stream at the backbone.
// Of every 100 announces 89 are external, 10 more-specifics and 1 an
// override of a customer prefix, in seeded order; withdraws remove a seeded
// choice of the active routes.
type routeGen struct {
	n       *ispNet
	rng     *rand.Rand
	active  []tf.Rule
	nextExt int
	kinds   []routeKind // the rest of the current block of 100 announces
	updates int
}

func newRouteGen(n *ispNet, seed int64) *routeGen {
	return &routeGen{n: n, rng: rand.New(rand.NewSource(seed))}
}

func (g *routeGen) nextKind() routeKind {
	if len(g.kinds) == 0 {
		g.kinds = make([]routeKind, 100)
		for i := range g.kinds {
			switch {
			case i < 1:
				g.kinds[i] = routeOverride
			case i < 11:
				g.kinds[i] = routeSpecific
			}
		}
		g.rng.Shuffle(len(g.kinds), func(i, j int) { g.kinds[i], g.kinds[j] = g.kinds[j], g.kinds[i] })
	}
	k := g.kinds[0]
	g.kinds = g.kinds[1:]
	return k
}

func prefix(a, b, c, d byte, length int) pkt.Prefix {
	return pkt.Prefix{Addr: pkt.Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)), Len: length}
}

func (g *routeGen) announce() tf.Rule {
	switch g.nextKind() {
	case routeSpecific:
		s := g.rng.Intn(ispSize.Subnets)
		return tf.Rule{Match: prefix(10, byte(s), byte(1+g.rng.Intn(255)), 0, 24),
			In: topo.NodeNone, Out: g.n.swC[s], Priority: 15}
	case routeOverride:
		// A longer match for a read host: the rule that resolves its address
		// changes, so the groups reading it are dirtied and re-checked. Only
		// subnets 0..2 are read at all — they represent the three symmetry
		// groups (subnet kinds cycle public/private/quarantined). The next
		// hop stays: every re-route to another neighbour the topology offers
		// loops or makes the verifier fail (README, findings).
		s := g.rng.Intn(3)
		return tf.Rule{Match: prefix(10, byte(s), 0, 0, 24),
			In: topo.NodeNone, Out: g.n.swC[s], Priority: 15}
	default:
		g.nextExt++
		x := g.nextExt
		return tf.Rule{Match: prefix(20+byte(x>>16), byte(x>>8), byte(x), 0, 24),
			In: topo.NodeNone, Out: g.n.fw[g.rng.Intn(len(g.n.fw))], Priority: 10}
	}
}

// step applies the next update to the overlay: announces and withdraws
// alternate once the overlay is full.
func (g *routeGen) step() {
	if len(g.active) < activeRoutes || g.updates%2 == 0 {
		r := g.announce()
		for i := range g.active { // re-announcing a prefix replaces it
			if g.active[i].Match == r.Match {
				g.active = append(g.active[:i], g.active[i+1:]...)
				break
			}
		}
		g.active = append(g.active, r)
	} else {
		i := g.rng.Intn(len(g.active))
		g.active = append(g.active[:i], g.active[i+1:]...)
	}
	g.updates++
}

// snapshot freezes the current overlay as a forwarding-state provider. The
// table is materialised here, so a stream's timed region holds none of the
// generator's work.
func (g *routeGen) snapshot() fibSnapshot {
	baseRules := g.n.base[g.n.backbone]
	rules := make([]tf.Rule, 0, len(g.active)+len(baseRules))
	rules = append(append(rules, g.active...), baseRules...)
	fib := make(tf.FIB, len(g.n.base))
	for n, rs := range g.n.base {
		fib[n] = rs
	}
	fib[g.n.backbone] = rules
	return fibSnapshot(fib)
}

// chunk generates the next n updates as changes.
func (g *routeGen) chunk(n int) []incr.Change {
	out := make([]incr.Change, n)
	for i := range out {
		g.step()
		out[i] = incr.FIBUpdate(g.snapshot().fibFor)
	}
	return out
}

// prefill brings the overlay to its steady size and returns the one change
// that installs it.
func (g *routeGen) prefill() incr.Change {
	for len(g.active) < activeRoutes {
		g.step()
	}
	return incr.FIBUpdate(g.snapshot().fibFor)
}

// scratchCheck is the route workloads' oracle: a fresh verifier over the
// session's current network must produce the session's reports, in order.
func scratchCheck(sess *incr.Session, got []core.Report) error {
	v, err := core.NewVerifier(sess.Network(), core.Options{})
	if err != nil {
		return err
	}
	want, err := v.VerifyAll(sess.Invariants(), true)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("session reports %d verdicts, from-scratch %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Invariant.Name() != want[i].Invariant.Name() || got[i].Satisfied != want[i].Satisfied {
			return fmt.Errorf("verdict %d: session %s=%v, from-scratch %s=%v", i,
				got[i].Invariant.Name(), got[i].Satisfied, want[i].Invariant.Name(), want[i].Satisfied)
		}
	}
	return nil
}

// ispSetup measures the in-process set-up path — description bytes → Decode
// → Build → NewSession, whose first verification is the starting verdict set
// — until the set-up budget is spent.
func ispSetup(cfg runConfig, res *runResult, desc []byte) error {
	return res.setup(cfg, func() (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		n, err := buildISP(desc)
		if err != nil {
			return 0, err
		}
		_, reports, err := n.session()
		if err != nil {
			return 0, err
		}
		return time.Since(t0), allSatisfied(reports, len(n.invs))
	})
}

func allSatisfied(reports []core.Report, want int) error {
	if len(reports) != want {
		return fmt.Errorf("%d reports, want %d", len(reports), want)
	}
	for _, r := range reports {
		if !r.Satisfied {
			return fmt.Errorf("starting state violates %s", r.Invariant.Name())
		}
	}
	return nil
}

// ispStart builds the stream's session and installs the prefilled overlay.
func ispStart(cfg runConfig, res *runResult) (*incr.Session, *routeGen, error) {
	desc, err := netdesc.Encode(netdesc.ISPBackbone(ispSize))
	if err != nil {
		return nil, nil, err
	}
	if err := ispSetup(cfg, res, desc); err != nil {
		return nil, nil, err
	}
	n, err := buildISP(desc)
	if err != nil {
		return nil, nil, err
	}
	sess, _, err := n.session()
	if err != nil {
		return nil, nil, err
	}
	g := newRouteGen(n, cfg.seed)
	reports, err := sess.Apply([]incr.Change{g.prefill()})
	if err != nil {
		return nil, nil, err
	}
	res.stamp["nodes"] = n.net.Topo.NumNodes()
	res.stamp["invariants"] = len(n.invs)
	res.stamp["topology_kb"] = len(desc) / 1024
	return sess, g, scratchCheck(sess, reports)
}

// runRouteSerial is the isp-route-serial workload: one Session.Apply per
// update, timed call to return.
func runRouteSerial(cfg runConfig) (*runResult, error) {
	res := newRunResult()
	sess, g, err := ispStart(cfg, res)
	if err != nil {
		return nil, err
	}
	var lat series
	var clean int
	var reports []core.Report
	for start := time.Now(); time.Since(start) < cfg.streamBudget(); {
		changes := g.chunk(serialChunk)
		runtime.GC()
		host.tick()
		for i := range changes {
			t0 := time.Now()
			r, err := sess.Apply(changes[i : i+1])
			lat.add(time.Since(t0))
			res.attempt(err)
			if err != nil {
				return nil, fmt.Errorf("update %d: %w", lat.n(), err)
			}
			if sess.LastApply().DirtyGroups == 0 {
				clean++
			}
			reports = r
		}
		if lat.n()%checkEvery == 0 {
			res.check(scratchCheck(sess, reports))
		}
	}
	res.check(scratchCheck(sess, reports))
	res.metrics["peak_rss_mb"] = selfPeakRSSMB()
	res.stamp["clean_share"] = float64(clean) / float64(lat.n())
	res.stamp["totals"] = fmt.Sprintf("%+v", sess.TotalStats())
	return res, res.stream(&lat)
}
