package mdl

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/netverify/vmn/internal/mbox"
	"github.com/netverify/vmn/internal/pkt"
)

// listing1 is the paper's Listing 1 (stateful firewall), verbatim modulo
// whitespace.
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

// listing2 is the paper's Listing 2 (NAT).
const listing2 = `
class NAT (nat_address: Address) {
  abstract remapped_port (p: Packet): int
  val active : Map[Flow, int]
  val reverse : Map[port, (Address, int)]
  def model (p: Packet) = {
    when fail(this) =>
      forward(Seq.empty)
    dst(p) == nat_address =>
      (dst, port) = reverse[dst_port(p)];
      dst(p) = dst;
      dst_port(p) = port;
      forward(Seq(p))
    active.contains(flow(p)) =>
      src(p) = nat_address;
      src_port(p) = active(flow(p));
      forward(Seq(p))
    _ =>
      address = src(p);
      port = src_port(p)
      src(p) = nat_address;
      src_port(p) = remapped_port(p);
      active(flow(p)) = src_port(p);
      reverse(src_port(p)) = (address, port);
      forward(Seq(p))
  }
}
`

var (
	aA = pkt.MustParseAddr("10.0.0.1")
	aB = pkt.MustParseAddr("10.0.0.2")
	aC = pkt.MustParseAddr("10.1.0.1")
)

func hdr(src, dst pkt.Addr, sp, dp pkt.Port) pkt.Header {
	return pkt.Header{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: pkt.TCP}
}

func TestParseListing1(t *testing.T) {
	cls, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Name != "LearningFirewall" {
		t.Fatalf("name = %s", cls.Name)
	}
	if len(cls.Annotations) != 1 || cls.Annotations[0] != "FailClosed" {
		t.Fatalf("annotations = %v", cls.Annotations)
	}
	if len(cls.Params) != 1 || !cls.Params[0].Type.IsSet() {
		t.Fatalf("params = %+v", cls.Params)
	}
	if len(cls.State) != 1 || cls.State[0].Name != "established" {
		t.Fatalf("state = %+v", cls.State)
	}
	if len(cls.Clauses) != 3 {
		t.Fatalf("clauses = %d", len(cls.Clauses))
	}
	if !cls.Clauses[2].Wildcard {
		t.Fatal("last clause should be the wildcard")
	}
}

func TestParseListing2(t *testing.T) {
	cls, err := Parse(listing2)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Name != "NAT" || len(cls.Abstract) != 1 || cls.Abstract[0].Name != "remapped_port" {
		t.Fatalf("parsed: %+v", cls)
	}
	if len(cls.State) != 2 || !cls.State[0].Type.IsMap() {
		t.Fatalf("state = %+v", cls.State)
	}
	if len(cls.Clauses) != 4 {
		t.Fatalf("clauses = %d", len(cls.Clauses))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                     // empty
		"class X",              // no params/body
		"class X () { }",       // no model function
		"@Fail@ class X () {}", // bad annotation
		"class X () { val }",   // bad member
		"class X (a: ) {}",     // bad type
		"class X () { def model (p: Packet) = { when => forward(Seq(p)) } }", // empty guard
		"class X () { def model (p: Packet) = { _ => } }",                    // empty body
		"class X () { def model (p: Packet) = { _ => forward(p) } }",         // missing Seq
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Fatalf("case %d should fail to parse", i)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Parse("class X (#) {}"); err == nil {
		t.Fatal("expected lex error")
	}
}

func instantiateFW(t *testing.T, pairs [][2]pkt.Addr) *Interpreted {
	t.Helper()
	cls, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Instantiate(cls, "fw0", Config{"acl": pairs}, pkt.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestListing1Semantics(t *testing.T) {
	m := instantiateFW(t, [][2]pkt.Addr{{aA, aB}})
	if m.FailMode() != mbox.FailClosed {
		t.Fatal("@FailClosed should map to FailClosed")
	}
	if m.Type() != "learningfirewall" {
		t.Fatalf("type = %s", m.Type())
	}
	st := m.InitState()
	// Unauthorized flow dropped.
	b := m.Process(st, mbox.Input{Hdr: hdr(aB, aA, 80, 1000)})
	if len(b[0].Out) != 0 {
		t.Fatal("B->A must be dropped")
	}
	// Authorized flow passes and punches a hole.
	b = m.Process(st, mbox.Input{Hdr: hdr(aA, aB, 1000, 80)})
	if len(b[0].Out) != 1 {
		t.Fatal("A->B must pass")
	}
	// Reverse now allowed.
	b2 := m.Process(b[0].Next, mbox.Input{Hdr: hdr(aB, aA, 80, 1000)})
	if len(b2[0].Out) != 1 {
		t.Fatal("established reverse must pass")
	}
}

// The MDL firewall and the native Go firewall must agree on random
// packet sequences (differential test).
func TestListing1EquivalentToNativeFirewall(t *testing.T) {
	pairs := [][2]pkt.Addr{{aA, aB}, {aA, aC}}
	mdlFW := instantiateFW(t, pairs)
	nativeFW := mbox.NewLearningFirewall("fw",
		mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aB)),
		mbox.AllowEntry(pkt.HostPrefix(aA), pkt.HostPrefix(aC)),
	)
	addrs := []pkt.Addr{aA, aB, aC}
	ports := []pkt.Port{1000, 2000}
	rng := rand.New(rand.NewSource(5))
	stM, stN := mdlFW.InitState(), nativeFW.InitState()
	for i := 0; i < 300; i++ {
		src, dst := addrs[rng.Intn(3)], addrs[rng.Intn(3)]
		if src == dst {
			continue
		}
		h := hdr(src, dst, ports[rng.Intn(2)], ports[rng.Intn(2)])
		bM := mdlFW.Process(stM, mbox.Input{Hdr: h})
		bN := nativeFW.Process(stN, mbox.Input{Hdr: h})
		if len(bM[0].Out) != len(bN[0].Out) {
			t.Fatalf("step %d: verdict differs for %s: mdl=%d native=%d",
				i, h, len(bM[0].Out), len(bN[0].Out))
		}
		if len(bM[0].Out) == 1 && bM[0].Out[0].Hdr != bN[0].Out[0].Hdr {
			t.Fatalf("step %d: rewritten headers differ", i)
		}
		stM, stN = bM[0].Next, bN[0].Next
	}
}

func instantiateNAT(t *testing.T, addr pkt.Addr) *Interpreted {
	t.Helper()
	cls, err := Parse(listing2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Instantiate(cls, "nat0", Config{"nat_address": addr}, pkt.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestListing2Semantics(t *testing.T) {
	natAddr := pkt.MustParseAddr("100.0.0.1")
	m := instantiateNAT(t, natAddr)
	if m.FailMode() != mbox.FailExplicit {
		t.Fatal("NAT references fail(this): FailExplicit expected")
	}
	st := m.InitState()
	// Failure clause drops.
	b := m.Process(st, mbox.Input{Hdr: hdr(aA, aC, 1234, 80), Failed: true})
	if len(b[0].Out) != 0 {
		t.Fatal("failed NAT must drop")
	}
	// Outbound remap.
	b = m.Process(st, mbox.Input{Hdr: hdr(aA, aC, 1234, 80)})
	out := b[0].Out[0].Hdr
	if out.Src != natAddr || out.SrcPort == 1234 {
		t.Fatalf("outbound rewrite wrong: %s", out)
	}
	// Same flow: stable mapping.
	b2 := m.Process(b[0].Next, mbox.Input{Hdr: hdr(aA, aC, 1234, 80)})
	if b2[0].Out[0].Hdr.SrcPort != out.SrcPort {
		t.Fatal("mapping must be stable")
	}
	// Return traffic translated back.
	b3 := m.Process(b[0].Next, mbox.Input{Hdr: hdr(aC, natAddr, 80, out.SrcPort)})
	back := b3[0].Out[0].Hdr
	if back.Dst != aA || back.DstPort != 1234 {
		t.Fatalf("reverse translation wrong: %s", back)
	}
	// Unknown reverse mapping dropped.
	b4 := m.Process(st, mbox.Input{Hdr: hdr(aC, natAddr, 80, 4242)})
	if len(b4[0].Out) != 0 {
		t.Fatal("unknown reverse mapping must drop")
	}
}

func TestListing2EquivalentToNativeNAT(t *testing.T) {
	natAddr := pkt.MustParseAddr("100.0.0.1")
	mdlNAT := instantiateNAT(t, natAddr)
	nativeNAT := mbox.NewNAT("nat", natAddr)
	// Drive both with the same outbound flows and reverse packets.
	flows := []pkt.Header{
		hdr(aA, aC, 1000, 80),
		hdr(aB, aC, 1000, 80),
		hdr(aA, aC, 2000, 443),
	}
	stM, stN := mdlNAT.InitState(), nativeNAT.InitState()
	var mdlPorts, natPorts []pkt.Port
	for _, h := range flows {
		bM := mdlNAT.Process(stM, mbox.Input{Hdr: h})
		bN := nativeNAT.Process(stN, mbox.Input{Hdr: h})
		mdlPorts = append(mdlPorts, bM[0].Out[0].Hdr.SrcPort)
		natPorts = append(natPorts, bN[0].Out[0].Hdr.SrcPort)
		stM, stN = bM[0].Next, bN[0].Next
	}
	// Return traffic for each mapped port translates to the same host.
	for i, h := range flows {
		retM := hdr(aC, natAddr, 80, mdlPorts[i])
		retN := hdr(aC, natAddr, 80, natPorts[i])
		bM := mdlNAT.Process(stM, mbox.Input{Hdr: retM})
		bN := nativeNAT.Process(stN, mbox.Input{Hdr: retN})
		if bM[0].Out[0].Hdr.Dst != bN[0].Out[0].Hdr.Dst {
			t.Fatalf("flow %d: reverse translation differs: %s vs %s",
				i, bM[0].Out[0].Hdr, bN[0].Out[0].Hdr)
		}
		if bM[0].Out[0].Hdr.Dst != h.Src {
			t.Fatalf("flow %d: wrong host %s", i, bM[0].Out[0].Hdr.Dst)
		}
	}
}

func TestInstantiateMissingParam(t *testing.T) {
	cls, _ := Parse(listing2)
	if _, err := Instantiate(cls, "n", Config{}, nil); err == nil {
		t.Fatal("missing nat_address must error")
	}
}

func TestInstantiateBadParamType(t *testing.T) {
	cls, _ := Parse(listing2)
	if _, err := Instantiate(cls, "n", Config{"nat_address": "oops"}, nil); err == nil {
		t.Fatal("bad config type must error")
	}
	cls1, _ := Parse(listing1)
	if _, err := Instantiate(cls1, "f", Config{"acl": 42}, nil); err == nil {
		t.Fatal("bad set config must error")
	}
}

func TestMustInstantiatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cls, _ := Parse(listing2)
	MustInstantiate(cls, "n", Config{}, nil)
}

// An MDL application firewall using a class predicate.
const appFWSrc = `
@FailClosed
@FlowParallel
class SkypeBlocker () {
  def model (p: Packet) = {
    when skype?(p) =>
      forward(Seq.empty)
    _ =>
      forward(Seq(p))
  }
}
`

func TestClassPredicate(t *testing.T) {
	cls, err := Parse(appFWSrc)
	if err != nil {
		t.Fatal(err)
	}
	reg := pkt.NewRegistry()
	m, err := Instantiate(cls, "blk", Config{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	sky, ok := reg.Lookup("skype")
	if !ok {
		t.Fatal("instantiation should register the skype class")
	}
	if m.RelevantClasses(reg).Count() != 1 {
		t.Fatal("relevant classes should contain skype")
	}
	st := m.InitState()
	b := m.Process(st, mbox.Input{Hdr: hdr(aA, aB, 1, 2), Classes: pkt.ClassSet(0).With(sky)})
	if len(b[0].Out) != 0 {
		t.Fatal("skype packet must be dropped")
	}
	b2 := m.Process(st, mbox.Input{Hdr: hdr(aA, aB, 1, 2)})
	if len(b2[0].Out) != 1 {
		t.Fatal("non-skype packet must pass")
	}
}

// A registry holds at most pkt.MaxClasses classes: a bundle whose class
// predicates would overflow it fails to instantiate instead of panicking,
// and one whose predicates are already registered still instantiates.
func TestClassPredicateRegistryFull(t *testing.T) {
	cls, err := Parse(appFWSrc)
	if err != nil {
		t.Fatal(err)
	}
	full := func(last string) *pkt.Registry {
		reg := pkt.NewRegistry()
		for i := 0; i < pkt.MaxClasses-1; i++ {
			reg.Register(fmt.Sprintf("c%d", i))
		}
		reg.Register(last)
		return reg
	}
	if _, err := Instantiate(cls, "blk", Config{}, full("other")); err == nil {
		t.Fatal("instantiation past pkt.MaxClasses classes must fail")
	}
	if _, err := Instantiate(cls, "blk", Config{}, full("skype")); err != nil {
		t.Fatalf("skype is already registered: %v", err)
	}
}

func TestStateKeyCanonicalAcrossInsertOrder(t *testing.T) {
	m := instantiateFW(t, [][2]pkt.Addr{{aA, aB}, {aA, aC}})
	st := m.InitState()
	ab := m.Process(st, mbox.Input{Hdr: hdr(aA, aB, 1, 2)})[0].Next
	abc := m.Process(ab, mbox.Input{Hdr: hdr(aA, aC, 3, 4)})[0].Next
	ac := m.Process(st, mbox.Input{Hdr: hdr(aA, aC, 3, 4)})[0].Next
	acb := m.Process(ac, mbox.Input{Hdr: hdr(aA, aB, 1, 2)})[0].Next
	if abc.Key() != acb.Key() {
		t.Fatalf("keys differ: %q vs %q", abc.Key(), acb.Key())
	}
}

func TestDisciplineAnnotation(t *testing.T) {
	cls, _ := Parse(appFWSrc)
	m, _ := Instantiate(cls, "x", Config{}, pkt.NewRegistry())
	if m.Discipline() != mbox.FlowParallel {
		t.Fatal("annotation should set discipline")
	}
	src := `
@OriginAgnostic
class C () {
  def model (p: Packet) = {
    _ => forward(Seq(p))
  }
}`
	cls2, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := Instantiate(cls2, "c", Config{}, nil)
	if m2.Discipline() != mbox.OriginAgnostic {
		t.Fatal("OriginAgnostic annotation ignored")
	}
}
