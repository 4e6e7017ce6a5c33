package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/netdesc"
)

// vpcSize is the cloud-VPC description both vpc-* workloads serve: 4 106
// invariants in 26 symmetry groups, a 4.4 MB file.
var vpcSize = netdesc.VPCConfig{Tenants: 2048, Shapes: 8, Peerings: 2, CrossChecks: 8}

// firstPlainTenant is the first tenant the streams touch: lower-numbered
// tenants carry the peering and cross-check invariants, and an edit there
// would flip more than the one invariant an op declares.
const firstPlainTenant = 16

// vpcBytes generates the description file's bytes.
func vpcBytes(cfg netdesc.VPCConfig) ([]byte, error) {
	return netdesc.Encode(netdesc.CloudVPC(cfg))
}

// vpcOp is one request of a vpc stream with what the reply must say.
type vpcOp struct {
	kind string // dead | live | node | inv | noop, for the per-kind table
	line []byte // request line, newline included
	id   string
	// unsat is the exact set of unsatisfied invariants the reply must list
	// (sorted), invs the invariant count it must report.
	unsat []string
	invs  int
	// fwDown says a firewall is down after this op: the topology dump does
	// not carry liveness, so no checkpoint can be taken here.
	fwDown bool
}

// vpcTxn is one what-if transaction: a propose and the decision that
// follows it.
type vpcTxn struct {
	kind     string // accept-rollback | accept-commit | reject-rollback
	propose  []byte
	decide   []byte
	decision string   // accept | reject
	shadow   []string // unsatisfied set of the shadow result
	invs     int
	commit   bool
}

// vpcModel tracks what the daemon's state must be, so every reply's verdict
// set is known by construction: a live edit names the one invariant it
// flips, everything else flips nothing.
type vpcModel struct {
	cfg   netdesc.VPCConfig
	rng   *rand.Rand
	invs  int
	unsat map[string]bool
	next  int // request id counter
	down  int // firewalls currently down
	cycle int
	extra string // name of the invariant an odd cycle must remove again
	// committed lists tenants whose what-if allowance is committed, oldest
	// first, so a later transaction can commit its removal.
	committed []int
}

func newVPCModel(cfg netdesc.VPCConfig, seed int64) *vpcModel {
	d := netdesc.CloudVPC(cfg)
	return &vpcModel{cfg: cfg, rng: rand.New(rand.NewSource(seed)), invs: len(d.Invariants), unsat: map[string]bool{}}
}

func (m *vpcModel) unsatList() []string {
	out := make([]string, 0, len(m.unsat))
	for k := range m.unsat {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (m *vpcModel) id() string {
	m.next++
	return fmt.Sprintf("q%d", m.next)
}

// tenants draws n distinct plain tenants.
func (m *vpcModel) tenants(n int) []int {
	seen := map[int]bool{}
	var out []int
	for len(out) < n {
		t := firstPlainTenant + m.rng.Intn(m.cfg.Tenants-firstPlainTenant)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func pubPrefix(t int) string  { return fmt.Sprintf("10.%d.%d.0/25", t>>8, t&255) }
func privAddr(t int) string   { return fmt.Sprintf("10.%d.%d.129", t>>8, t&255) }
func pubReach(t int) string   { return fmt.Sprintf("t%d-pub-reach", t) }
func editClass(t int) string  { return fmt.Sprintf("edit-%d", t) }
func fwName(t int) string     { return fmt.Sprintf("t%d-fw", t) }
func pubName(t int) string    { return fmt.Sprintf("t%d-pub", t) }
func deadSrc(t int) string    { return fmt.Sprintf("11.%d.%d.0/24", t>>8, t&255) }
func trustedSrc(t int) string { return fmt.Sprintf("9.%d.%d.0/24", 100+t>>8, t&255) }

const (
	deadDst  = "12.0.0.0/8"
	internet = "8.0.0.0/8"
)

func (m *vpcModel) shapeClass(t int) string {
	return fmt.Sprintf("shape%d-pub", t%m.cfg.Shapes)
}

func change(op, node string) incr.WireChange { return incr.WireChange{Op: op, Node: node} }

func fwChange(op string, t int, src, dst string) incr.WireChange {
	return incr.WireChange{Op: op, Node: fwName(t), Src: src, Dst: dst}
}

func relabel(t int, class string) incr.WireChange {
	return incr.WireChange{Op: "relabel", Node: pubName(t), Class: class}
}

func mustLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only harness-built request values reach here
	}
	return append(b, '\n')
}

// single renders a one-change request; batch an apply_batch envelope.
func (m *vpcModel) single(kind string, c incr.WireChange) vpcOp {
	id := m.id()
	return vpcOp{kind: kind, id: id, line: mustLine(incr.WireRequest{WireChange: c, Id: id})}
}

func (m *vpcModel) batch(kind string, cs ...incr.WireChange) vpcOp {
	id := m.id()
	req := incr.WireRequest{WireChange: incr.WireChange{Op: "apply_batch"}, Id: id, Changes: cs}
	return vpcOp{kind: kind, id: id, line: mustLine(req)}
}

// builder renders one op and moves the model to the state after it.
type builder func() vpcOp

// shuffled orders a cycle's ops by a seeded shuffle in which each pair's
// first half (the edit) stays ahead of its second half (the undo).
func (m *vpcModel) shuffled(pairs [][2]builder, singles []builder) []vpcOp {
	// Slot value p >= 0 is a half of pairs[p]; -1-i is singles[i].
	var slots []int
	for p := range pairs {
		slots = append(slots, p, p)
	}
	for i := range singles {
		slots = append(slots, -1-i)
	}
	m.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	seen := make([]int, len(pairs))
	ops := make([]vpcOp, 0, len(slots))
	for _, s := range slots {
		var op vpcOp
		if s >= 0 {
			op = pairs[s][seen[s]]()
			seen[s]++
		} else {
			op = singles[-1-s]()
		}
		op.unsat, op.invs, op.fwDown = m.unsatList(), m.invs, m.down > 0
		ops = append(ops, op)
	}
	return ops
}

// churnCycle generates the next 20 ops of the vpc-sg-churn stream: 10 dead
// security-group edits (5 allow/delete pairs), 3 diverge/converge pairs that
// flip exactly one invariant and flip it back, 1 firewall failure/recovery
// pair, 1 invariant add (even cycles) or its removal (odd cycles), 1 noop.
// Every cycle ends in the state it started from, save the added invariant.
//
// A live edit on a tenant is only visible once the tenant's host leaves its
// declared policy class (tenants of one shape are verified through one
// representative), so each live edit carries the relabel with it.
func (m *vpcModel) churnCycle() []vpcOp {
	ts := m.tenants(9)
	var pairs [][2]builder
	for _, t := range ts[:5] {
		t := t
		pairs = append(pairs, [2]builder{
			func() vpcOp { return m.single("dead", fwChange("fw_allow", t, deadSrc(t), deadDst)) },
			func() vpcOp { return m.single("dead", fwChange("fw_del", t, deadSrc(t), deadDst)) }})
	}
	for _, t := range ts[5:8] {
		t := t
		pairs = append(pairs, [2]builder{
			func() vpcOp {
				m.unsat[pubReach(t)] = true
				return m.batch("live", relabel(t, editClass(t)), fwChange("fw_deny", t, internet, pubPrefix(t)))
			},
			func() vpcOp {
				delete(m.unsat, pubReach(t))
				return m.batch("live", fwChange("fw_del", t, internet, pubPrefix(t)), relabel(t, m.shapeClass(t)))
			}})
	}
	down := ts[8]
	pairs = append(pairs, [2]builder{
		func() vpcOp {
			m.unsat[pubReach(down)] = true
			m.down++
			return m.batch("node", relabel(down, editClass(down)), change("node_down", fwName(down)))
		},
		func() vpcOp {
			delete(m.unsat, pubReach(down))
			m.down--
			return m.batch("node", change("node_up", fwName(down)), relabel(down, m.shapeClass(down)))
		}})

	var singles []builder
	if m.cycle%2 == 0 {
		ab := m.tenants(2)
		name := fmt.Sprintf("x-%d-%d-%d", m.cycle, ab[0], ab[1])
		singles = append(singles, func() vpcOp {
			m.invs++
			m.extra = name
			return m.single("inv", incr.WireChange{Op: "inv_add", Invariant: &incr.WireInvariant{
				Type: "flow_isolation", Dst: fmt.Sprintf("t%d-priv", ab[0]), SrcAddr: privAddr(ab[1]), Label: name}})
		})
	} else {
		singles = append(singles, func() vpcOp {
			m.invs--
			return m.single("inv", incr.WireChange{Op: "inv_remove", Name: m.extra})
		})
	}
	singles = append(singles, func() vpcOp { return m.single("noop", incr.WireChange{Op: "noop"}) })
	m.cycle++
	return m.shuffled(pairs, singles)
}

// whatifCycle generates the next 8 transactions of the vpc-whatif stream: 4
// accepted and rolled back (2 dead edits, 2 live but harmless allowances), 2
// accepted and committed (one adds a dead allowance, one removes the oldest
// committed one, so committed state stays bounded), 2 rejected — a violating
// edit, which makes the daemon search for a repair — and rolled back.
func (m *vpcModel) whatifCycle() []vpcTxn {
	ts := m.tenants(8)
	propose := func(cs ...incr.WireChange) []byte {
		return mustLine(incr.WireRequest{WireChange: incr.WireChange{Op: "propose"}, Id: m.id(), Changes: cs})
	}
	decide := func(op string) []byte {
		return mustLine(incr.WireRequest{WireChange: incr.WireChange{Op: op}, Id: m.id()})
	}
	var txns []vpcTxn
	for _, t := range ts[:2] {
		txns = append(txns, vpcTxn{kind: "accept-rollback", decision: "accept",
			propose: propose(fwChange("fw_allow", t, deadSrc(t), deadDst)), decide: decide("rollback")})
	}
	for _, t := range ts[2:4] {
		txns = append(txns, vpcTxn{kind: "accept-rollback", decision: "accept",
			propose: propose(relabel(t, editClass(t)), fwChange("fw_allow", t, trustedSrc(t), pubPrefix(t))),
			decide:  decide("rollback")})
	}
	add := ts[4]
	txns = append(txns, vpcTxn{kind: "accept-commit", decision: "accept", commit: true,
		propose: propose(fwChange("fw_allow", add, deadSrc(add), deadDst)), decide: decide("commit")})
	m.committed = append(m.committed, add)
	del := m.committed[0]
	m.committed = m.committed[1:]
	txns = append(txns, vpcTxn{kind: "accept-commit", decision: "accept", commit: true,
		propose: propose(fwChange("fw_del", del, deadSrc(del), deadDst)), decide: decide("commit")})
	for _, t := range ts[6:8] {
		txns = append(txns, vpcTxn{kind: "reject-rollback", decision: "reject", shadow: []string{pubReach(t)},
			propose: propose(relabel(t, editClass(t)), fwChange("fw_deny", t, internet, pubPrefix(t)),
				fwChange("fw_allow", t, deadSrc(t), deadDst)),
			decide: decide("rollback")})
	}
	// The add must be committed before its removal can be: keep those two in
	// order, shuffle the rest around them.
	order := m.rng.Perm(len(txns))
	pos := map[int]int{}
	for i, o := range order {
		pos[o] = i
	}
	if del == add && pos[4] > pos[5] {
		order[pos[4]], order[pos[5]] = order[pos[5]], order[pos[4]]
	}
	out := make([]vpcTxn, len(txns))
	for i, o := range order {
		out[i] = txns[o]
		out[i].invs = m.invs
	}
	m.cycle++
	return out
}

var (
	keyUnsat     = []byte(`"satisfied":false`)
	keyInvariant = []byte(`"invariant":"`)
	keyError     = []byte(`"error":`)
)

// scanUnsat lists, sorted, the invariants a response line reports as
// unsatisfied. It scans for the one field instead of decoding 700 KB of
// JSON per reply, so the harness is not what the closed loop waits for; the
// checkpoints decode whole replies and would expose a scanner that lies.
func scanUnsat(line []byte) []string {
	var out []string
	for off := 0; ; {
		i := bytes.Index(line[off:], keyUnsat)
		if i < 0 {
			break
		}
		at := off + i
		off = at + len(keyUnsat)
		j := bytes.LastIndex(line[:at], keyInvariant)
		if j < 0 {
			continue
		}
		name := line[j+len(keyInvariant):]
		if k := bytes.IndexByte(name, '"'); k >= 0 {
			out = append(out, string(name[:k]))
		}
	}
	sort.Strings(out)
	return out
}

// headerInt reads the integer value of the first `"key":` in a line.
func headerInt(line []byte, key string) (int, bool) {
	k := []byte(`"` + key + `":`)
	i := bytes.Index(line, k)
	if i < 0 {
		return 0, false
	}
	n, digits := 0, 0
	for _, c := range line[i+len(k):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	return n, digits > 0
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkVerdicts compares a reply's verdicts with the expected ones. A short
// line carrying an "error" key is the daemon's structured rejection.
func checkVerdicts(line []byte, id string, unsat []string, invs int) error {
	if len(line) < 4096 && bytes.Contains(line, keyError) {
		return fmt.Errorf("error line: %s", bytes.TrimSpace(line))
	}
	if !bytes.HasSuffix(bytes.TrimSpace(line), []byte(`"id":"`+id+`"}`)) {
		return fmt.Errorf("reply does not echo id %s", id)
	}
	if n, ok := headerInt(line, "invariants"); !ok || n != invs {
		return fmt.Errorf("reply %s reports %d invariants, want %d", id, n, invs)
	}
	if got := scanUnsat(line); !sameStrings(got, unsat) {
		return fmt.Errorf("reply %s: unsatisfied %v, want %v", id, got, unsat)
	}
	return nil
}

// checkTxnAck checks a commit or rollback acknowledgement. The what-if
// stream never commits a violation, so a commit must report none.
func checkTxnAck(line []byte, commit bool) error {
	var ack incr.WireTxAck
	if err := json.Unmarshal(line, &ack); err != nil {
		return fmt.Errorf("malformed ack %q: %w", bytes.TrimSpace(line), err)
	}
	switch {
	case commit && (!ack.Committed || ack.Unsatisfied != 0):
		return fmt.Errorf("commit ack %s: committed=%v unsatisfied=%d, want true/0", ack.Id, ack.Committed, ack.Unsatisfied)
	case !commit && !ack.RolledBack:
		return fmt.Errorf("rollback not acknowledged: %s", bytes.TrimSpace(line))
	}
	return nil
}

// scratchUnsat verifies a description from scratch — decode, build, a fresh
// verifier with the daemon's defaults, VerifyAll with symmetry — and returns
// the sorted unsatisfied invariants and the invariant count.
func scratchUnsat(d *netdesc.Desc) ([]string, int, error) {
	net, invs, err := netdesc.Build(d, "")
	if err != nil {
		return nil, 0, err
	}
	v, err := core.NewVerifier(net, core.Options{})
	if err != nil {
		return nil, 0, err
	}
	reports, err := v.VerifyAll(invs, true)
	if err != nil {
		return nil, 0, err
	}
	var unsat []string
	for _, r := range reports {
		if !r.Satisfied {
			unsat = append(unsat, r.Invariant.Name())
		}
	}
	sort.Strings(unsat)
	return unsat, len(invs), nil
}

// checkpoint is the untimed from-scratch oracle of the daemon workloads: it
// fetches the daemon's live topology dump, verifies it from nothing and
// requires the result to equal both the daemon's own current reports (decoded
// in full this time) and the model's expectation.
func checkpoint(d *daemon, unsat []string, invs int) error {
	line, err := d.request(incr.WireRequest{WireChange: incr.WireChange{Op: "topology", Name: "dump"}, Id: "dump"})
	if err != nil {
		return fmt.Errorf("checkpoint dump: %w", err)
	}
	var dump struct {
		Desc *netdesc.Desc `json:"desc"`
	}
	if err := json.Unmarshal(line, &dump); err != nil || dump.Desc == nil {
		return fmt.Errorf("checkpoint dump: malformed reply (%v)", err)
	}
	got, n, err := scratchUnsat(dump.Desc)
	if err != nil {
		return fmt.Errorf("checkpoint verify: %w", err)
	}
	if n != invs || !sameStrings(got, unsat) {
		return fmt.Errorf("checkpoint: from-scratch verdicts %v over %d invariants, model expects %v over %d", got, n, unsat, invs)
	}
	// A noop refreshes the daemon's full report set without changing state.
	line, err = d.request(incr.WireRequest{WireChange: incr.WireChange{Op: "noop"}})
	if err != nil {
		return fmt.Errorf("checkpoint refresh: %w", err)
	}
	var res incr.WireResult
	if err := json.Unmarshal(line, &res); err != nil {
		return fmt.Errorf("checkpoint refresh: %w", err)
	}
	var live []string
	for _, r := range res.Reports {
		if !r.Satisfied {
			live = append(live, r.Invariant)
		}
	}
	sort.Strings(live)
	if len(res.Reports) != invs || !sameStrings(live, unsat) || !sameStrings(scanUnsat(line), unsat) {
		return fmt.Errorf("checkpoint: daemon reports %v over %d invariants, from-scratch %v over %d", live, len(res.Reports), got, n)
	}
	return nil
}
