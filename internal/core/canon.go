package core

// Canonical slice normalization (the §4 scaling machinery taken one step
// further than the paper's classifier-based symmetry): every (invariant,
// scenario) check canonicalizes its slice — a deterministic renaming of
// addresses, endpoints, node IDs and middlebox configuration keys onto a
// canonical alphabet (internal/slices.Canonizer) — and checks whose
// canonical keys are equal are PROVABLY isomorphic: there is a bijection
// under which the two bounded verification problems are byte-identical.
// VerifyAll therefore solves one representative per equivalence class and
// translates violation witnesses back through the inverse renamings for
// every member; unlike §4.2 symmetry grouping this needs no assumption
// that the network "is symmetric" — the key equality is the proof.
//
// Two canonical keys are built per check:
//
//   - the class key, seeded from the invariant's structural slots, keys
//     verdict sharing (class-level solving here, the verdict cache in
//     internal/incr);
//   - the encoding key, seeded from the slice alone (invariant-
//     independent), keys encode.SliceEncoding reuse, so an invariant over
//     a symmetric-but-not-identical slice is translated into a warm
//     encoding's namespace, solved there, and its witness translated back.

import (
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/pkt"
	"github.com/netverify/vmn/internal/slices"
	"github.com/netverify/vmn/internal/tf"
	"github.com/netverify/vmn/internal/topo"
)

// checkPlan is everything one (invariant, scenario) check needs before
// dispatch: the computed slice, the assembled problem, and — when
// canonicalization applies — the canonical class and encoding identities
// with their renamings.
type checkPlan struct {
	inv    inv.Invariant
	sc     topo.FailureScenario
	engine *tf.Engine
	sl     slices.Result
	prob   *inv.Problem

	// classKey groups checks into provably isomorphic classes; nil when
	// the check is not canonicalizable (whole-network slice, a middlebox
	// without canonical config keys, an unknown invariant type, or
	// Options.NoCanon). ren is the slice's renaming, used to translate
	// witnesses between class members.
	classKey []byte
	ren      *slices.Renaming

	// encKey is the invariant-independent canonical identity of the
	// slice's SAT encoding; encRen its renaming. nil under the same
	// conditions as classKey.
	encKey []byte
	encRen *slices.Renaming
}

// buildPlan computes the slice and problem for one check and, unless
// canonicalization is disabled or inapplicable, its canonical identities.
func (v *Verifier) buildPlan(i inv.Invariant, sc topo.FailureScenario, engine *tf.Engine) (*checkPlan, error) {
	keep := v.keepSet(i)
	sl, err := v.sliceFor(keep, engine)
	if err != nil {
		return nil, err
	}
	p := &checkPlan{inv: i, sc: sc, engine: engine, sl: sl}
	p.prob = &inv.Problem{
		Topo:      v.net.Topo,
		TF:        engine,
		Boxes:     sl.Boxes,
		Registry:  v.net.Registry,
		Samples:   v.genSamples(i, sl, keep),
		MaxSends:  v.maxSends(i, sl),
		Scenario:  sc,
		Invariant: i,
	}
	if v.opts.NoCanon || sl.Whole {
		// Whole-network problems are excluded: their canonical keys would
		// embed the full edge×address transfer matrix for no sharing
		// opportunity worth the cost.
		return p, nil
	}
	p.classKey, p.ren = v.canonClassKey(p)
	if p.classKey != nil {
		p.encKey, p.encRen = v.canonEncKey(p)
	}
	return p, nil
}

// putCanonSlice serializes the slice content: hosts with their addresses
// (in slice order, which is also sample-generation order), the boxes'
// auxiliary and service addresses (completing the address universe BEFORE
// configurations are encoded, so dead-entry elimination in canonical
// config keys sees every address a packet can carry), middleboxes with
// canonical configuration keys, and the packet alphabet. It reports false
// when a box has no canonical configuration key.
func putCanonSlice(c *slices.Canonizer, p *checkPlan) bool {
	c.Byte('H')
	c.Uint(uint64(len(p.sl.Hosts)))
	for _, h := range p.sl.Hosts {
		c.Node(h)
		c.Addr(p.prob.Topo.Node(h).Addr)
	}
	c.Byte('A')
	for _, b := range p.sl.Boxes {
		if aux, ok := b.Model.(slices.AuxAddrs); ok {
			for _, a := range aux.AuxAddrs() {
				c.Addr(a)
			}
		}
		if svc, ok := b.Model.(slices.ServiceAddrs); ok {
			for _, a := range svc.ServiceAddrs() {
				c.Addr(a)
			}
		}
	}
	c.Byte('B')
	c.Uint(uint64(len(p.sl.Boxes)))
	for _, b := range p.sl.Boxes {
		c.Node(b.Node)
		if !c.PutBoxConfig(b.Model) {
			return false
		}
	}
	c.Byte('S')
	c.Uint(uint64(len(p.prob.Samples)))
	for _, s := range p.prob.Samples {
		c.Node(s.Sender)
		c.Header(s.Hdr)
	}
	c.Uint(uint64(p.prob.MaxSends))
	return true
}

// canonClassKey builds the invariant-seeded canonical key: equal keys mean
// the two (invariant, scenario, slice) checks are isomorphic, verdicts
// equal and traces corresponding under the renamings.
func (v *Verifier) canonClassKey(p *checkPlan) ([]byte, *slices.Renaming) {
	c := slices.NewCanonizer(v.net.Topo, p.engine)
	c.Byte(1) // key format version
	c.Raw(v.opts.AppendVerdictKey(nil))
	c.Byte('I')
	// An invariant type without slots is not canonically encodable; its
	// checks are never class-shared (sound: they simply always solve).
	si, ok := p.inv.(inv.Slotted)
	if !ok {
		return nil, nil
	}
	si.Slots(c)
	if !putCanonSlice(c, p) {
		return nil, nil
	}
	return c.Key(), c.Renaming()
}

// canonEncKey builds the slice-seeded canonical key of the check's SAT
// encoding: everything encode.NewSliceEncoding's output is a function of,
// with no invariant content, so isomorphic slices hit one warm encoding
// regardless of which invariants they carry.
func (v *Verifier) canonEncKey(p *checkPlan) ([]byte, *slices.Renaming) {
	c := slices.NewCanonizer(v.net.Topo, p.engine)
	c.Byte(2) // key format version (distinct from class keys)
	c.Raw(v.opts.AppendVerdictKey(nil))
	if !putCanonSlice(c, p) {
		return nil, nil
	}
	return c.Key(), c.Renaming()
}

// slotTranslator is the inv.SlotWriter that carries an invariant's slots
// from one renaming's namespace into another's: it writes nothing and
// answers each name with its image; ok turns false when a slot is outside
// the source renaming. A prefix the source never interned (a Traversal
// source against an encoding renaming, built from the slice alone) is
// carried by behaviour: a prefix classifying the target universe exactly as
// p classifies the source one is indistinguishable to the encoded problem.
type slotTranslator struct {
	from, to *slices.Renaming
	ok       bool
}

func (t *slotTranslator) Byte(byte)   {}
func (t *slotTranslator) Uint(uint64) {}

func (t *slotTranslator) Node(n topo.NodeID) topo.NodeID {
	n, ok := t.from.TranslateNode(n, t.to)
	t.ok = t.ok && ok
	return n
}

func (t *slotTranslator) Addr(a pkt.Addr) pkt.Addr {
	a, ok := t.from.TranslateAddr(a, t.to)
	t.ok = t.ok && ok
	return a
}

func (t *slotTranslator) Prefix(p pkt.Prefix) pkt.Prefix {
	q, ok := t.from.TranslatePrefix(p, t.to)
	if !ok {
		q, ok = t.from.TranslatePrefixByMatch(p, t.to)
	}
	t.ok = t.ok && ok
	return q
}

// translateInvariant carries an invariant's structural slots from one
// renaming's namespace into another's; labels are preserved. It reports
// false for an invariant type without slots.
func translateInvariant(i inv.Invariant, from, to *slices.Renaming) (inv.Invariant, bool) {
	si, ok := i.(inv.Slotted)
	if !ok {
		return nil, false
	}
	t := &slotTranslator{from: from, to: to, ok: true}
	out := si.Slots(t)
	return out, t.ok
}

// translateSamples carries a packet alphabet between namespaces. Given
// equal canonical encoding keys the result is positionally identical to
// the target namespace's own alphabet, which is what keeps canonical
// (lexicographically minimal) witness extraction aligned across the
// translation.
func translateSamples(samples []inv.Sample, from, to *slices.Renaming) ([]inv.Sample, bool) {
	out := make([]inv.Sample, len(samples))
	for j, s := range samples {
		var ok bool
		if s.Sender, ok = from.TranslateNode(s.Sender, to); !ok {
			return nil, false
		}
		if s.Hdr, ok = from.TranslateHeader(s.Hdr, to); !ok {
			return nil, false
		}
		out[j] = s
	}
	return out, true
}

// translateReport derives a class member's report from its class
// representative's: verdict and engine accounting carry over (the problems
// are isomorphic, so both engines do identical work on either), the
// member's own invariant, scenario and slice are restored, the witness is
// translated through the representative's renaming into the member's, and
// Satisfied is recomputed against the member's expectation. ok=false (a
// trace event outside the renaming, which key equality rules out but is
// checked anyway) tells the caller to solve the member directly.
func translateReport(lead Report, leadPlan, memPlan *checkPlan) (Report, bool) {
	r := lead
	r.Invariant = memPlan.inv
	r.Scenario = memPlan.sc
	r.Slice = memPlan.sl
	r.SliceHosts = len(memPlan.sl.Hosts)
	r.SliceBoxes = len(memPlan.sl.Boxes)
	r.Whole = memPlan.sl.Whole
	r.Duration = 0
	r.CanonShared = true
	if len(lead.Result.Trace) > 0 {
		trace, ok := leadPlan.ren.TranslateEvents(lead.Result.Trace, memPlan.ren)
		if !ok {
			return Report{}, false
		}
		r.Result.Trace = trace
	}
	switch r.Result.Outcome {
	case inv.Holds:
		r.Satisfied = memPlan.inv.Expectation()
	case inv.Violated:
		r.Satisfied = !memPlan.inv.Expectation()
	default:
		r.Satisfied = false
	}
	return r, true
}

// CanonStats reports the verifier's canonicalization counters: equivalence
// classes formed across VerifyAll calls (each class is exactly one solved
// representative), member checks served by witness translation, and
// invariant checks solved on a warm isomorphic encoding via namespace
// translation.
func (v *Verifier) CanonStats() (classes, shared, encTranslated int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.canonClasses, v.canonShared, v.canonEncTranslated
}

// CheckPlan is the exported face of a planned check: the incremental layer
// (internal/incr) plans each dirty (invariant, scenario) pair once, keys
// its verdict cache and class clustering on the canonical identity, and
// solves through VerifyPlanned without recomputing the slice.
type CheckPlan struct {
	p *checkPlan
}

// Slice returns the planned check's computed slice.
func (cp *CheckPlan) Slice() slices.Result { return cp.p.sl }

// Problem returns the planned check's assembled problem.
func (cp *CheckPlan) Problem() *inv.Problem { return cp.p.prob }

// CanonKey returns the check's canonical class key, nil when the check is
// not canonicalizable (whole-network slice, a box without canonical config
// keys, an unknown invariant type, or Options.NoCanon).
func (cp *CheckPlan) CanonKey() []byte { return cp.p.classKey }

// Renaming returns the slice's canonical renaming (nil iff CanonKey is).
func (cp *CheckPlan) Renaming() *slices.Renaming { return cp.p.ren }

// PlanOn plans one (invariant, scenario) check against a pre-compiled
// engine: slice, problem and canonical identity.
func (v *Verifier) PlanOn(i inv.Invariant, sc topo.FailureScenario, engine *tf.Engine) (*CheckPlan, error) {
	plan, err := v.buildPlan(i, sc, engine)
	if err != nil {
		return nil, err
	}
	return &CheckPlan{p: plan}, nil
}

// VerifyPlanned solves a planned check (see PlanOn); the verdict and trace
// are identical to an unplanned check of the same (invariant, scenario, engine).
func (v *Verifier) VerifyPlanned(cp *CheckPlan) (Report, error) {
	return v.solvePlan(cp.p)
}

// TranslatePlannedReport derives the report of a planned check from the
// report of a canonically equivalent check solved under the renaming
// leadRen: the verdict carries over, the witness is translated into the
// member's namespace, and slice/invariant/scenario fields are the
// member's own. ok=false tells the caller to solve the member directly.
func TranslatePlannedReport(lead Report, leadRen *slices.Renaming, member *CheckPlan) (Report, bool) {
	leadPlan := &checkPlan{ren: leadRen}
	return translateReport(lead, leadPlan, member.p)
}
