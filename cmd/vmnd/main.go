// Command vmnd is VMN's long-running incremental verification service: it
// builds one of the built-in evaluation networks, verifies its invariant
// set once, then reads newline-delimited JSON change-sets from stdin and
// emits one JSON result per change-set on stdout — re-verifying only the
// invariants each change-set can affect (see internal/incr and DESIGN.md).
//
// Usage:
//
//	vmnd -network datacenter -groups 5
//	vmnd -topology examples/topologies/fattree-k4.json
//	echo '{"op":"node_down","node":"fw1"}' | vmnd -network datacenter
//
// -topology serves a vmn-topology/1 description file (see internal/netdesc)
// instead of a built-in network; a malformed file is one structured
// file:line:field error and exit 2 — no partial session ever serves. The
// "topology" op introspects what the daemon verifies:
//
//	{"op":"topology","id":"t1"}               (summary: name, source, sizes)
//	{"op":"topology","id":"t2","name":"dump"} (plus inline canonical export
//	                                           of the live network)
//
// Input lines are a single change object or an array applied atomically:
//
//	{"op":"node_down","node":"fw1"}
//	[{"op":"fw_del","node":"fw1","src":"10.0.0.0/16","dst":"10.1.0.0/16"},
//	 {"op":"relabel","node":"h0-0","class":"broken-0"}]
//	{"op":"inv_add","invariant":{"type":"simple_isolation","dst":"h1-0","src_addr":"10.2.0.1"}}
//	{"op":"box_state","node":"fw1","box":{"type":"firewall","default_allow":true}}
//	{"op":"noop"}
//
// A change-set that cannot apply is refused whole: nothing of it is
// installed or journaled. Invariants, box configurations and prefixes are
// spelled as in topology files (internal/netdesc).
//
// An apply_batch envelope submits a change list for coalescing before
// the (single, atomic) apply: repeated updates to one element collapse
// to the last writer, an add-then-delete pair nets out to nothing. The
// result line reports the raw (enqueued) and eliminated (coalesced)
// change counts; verdicts are bit-identical to applying the same
// changes one at a time.
//
//	{"op":"apply_batch","id":"b1","changes":[
//	  {"op":"fw_deny","node":"fw1","src":"10.0.0.0/16","dst":"10.1.0.0/16"},
//	  {"op":"relabel","node":"h0-0","class":"x"},{"op":"relabel","node":"h0-0","class":""}]}
//
// Transactional requests verify a change-set against shadow state before
// deciding — the deployment-guardrail pattern:
//
//	{"op":"propose","id":"r1","changes":[{"op":"fw_del","node":"fw1",
//	  "src":"10.0.0.0/16","dst":"10.1.0.0/16"}]}
//	{"op":"commit","id":"r2"}     (or {"op":"rollback","id":"r2"})
//
// A propose answers with a decision (reject on newly violated invariants,
// with verified minimal-repair suggestions) and the full shadow report
// set; rollback leaves the session as if never proposed, but for the
// verdicts it keeps cached.
//
// Each result line carries the dirty/cache counters and the full report
// set; malformed, oversize (over 1 MiB) or inapplicable lines produce an
// error line and the session continues. Every request runs under
// recover() with an optional wall-clock deadline (-timeout) and solver
// conflict budget (-max-conflicts): solver bugs become structured error
// lines and over-budget checks degrade to explicit budget_exceeded
// verdicts — the daemon itself keeps serving.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	gonet "net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"github.com/netverify/vmn/internal/bench"
	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/inv"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/store"
	"github.com/netverify/vmn/internal/topo"
)

// netConfig selects and sizes a built-in evaluation network.
type netConfig struct {
	network   string
	subnets   int
	groups    int
	tenants   int
	peerings  int
	withCache bool
}

// buildNetwork materializes a built-in network and its invariant set.
func buildNetwork(cfg netConfig) (*core.Network, []inv.Invariant, error) {
	var (
		net  *core.Network
		invs []inv.Invariant
	)
	switch cfg.network {
	case "enterprise":
		e := bench.NewEnterprise(bench.EnterpriseConfig{Subnets: cfg.subnets, HostsPerSubnet: 1})
		net = e.Net
		invs = e.AllInvariants()
	case "datacenter":
		d := bench.NewDatacenter(bench.DCConfig{Groups: cfg.groups, HostsPerGroup: 1, WithCaches: cfg.withCache})
		net = d.Net
		for a := 0; a < cfg.groups; a++ {
			for b := 0; b < cfg.groups; b++ {
				if a != b {
					invs = append(invs, d.IsolationInvariant(a, b))
				}
			}
		}
		if cfg.withCache {
			for g := 0; g < cfg.groups; g++ {
				invs = append(invs, d.DataIsolationInvariant(g))
			}
		}
	case "multitenant":
		m := bench.NewMultiTenant(bench.MTConfig{Tenants: cfg.tenants, PubPerTenant: 2, PrivPerTenant: 2})
		net = m.Net
		for a := 0; a < cfg.tenants; a++ {
			for b := 0; b < cfg.tenants; b++ {
				if a != b {
					invs = append(invs,
						m.PrivPrivInvariant(a, b), m.PubPrivInvariant(a, b), m.PrivPubInvariant(a, b))
				}
			}
		}
	case "isp":
		i := bench.NewISP(bench.ISPConfig{Peerings: cfg.peerings, Subnets: cfg.subnets})
		net = i.Net
		for s := 0; s < cfg.subnets; s++ {
			invs = append(invs, i.Invariant(s, 0))
		}
	default:
		return nil, nil, fmt.Errorf("unknown network %q", cfg.network)
	}
	return net, invs, nil
}

// serveHooks carries the daemon-level test hooks and session metadata;
// the zero value disables the hooks and reports an unnamed built-in
// topology.
type serveHooks struct {
	// armFault, when non-nil, makes the next group solve panic (the
	// inject_panic op; see wireFaultInjection). Nil rejects the op.
	armFault func()
	// topoName / topoSource label the "topology" op's answer: the
	// description name (or built-in network name) and where it came
	// from (the file path, or "builtin").
	topoName   string
	topoSource string
}

// wireTopology answers the "topology" introspection op: what the daemon
// is verifying and how big it is. With {"name":"dump"} the full current
// network is exported inline as a canonical vmn-topology/1 description
// (including any firewall rules edited over the wire since startup).
type wireTopology struct {
	Op          string        `json:"op"`
	Id          string        `json:"id,omitempty"`
	Seq         int           `json:"seq"`
	Name        string        `json:"name"`
	Source      string        `json:"source"`
	Hosts       int           `json:"hosts"`
	Switches    int           `json:"switches"`
	Middleboxes int           `json:"middleboxes"`
	Externals   int           `json:"externals"`
	Links       int           `json:"links"`
	Invariants  int           `json:"invariants"`
	Classes     int           `json:"classes"`
	Desc        *netdesc.Desc `json:"desc,omitempty"`
}

// topologyResponse summarizes the live network; dump additionally exports
// it. The export can fail (MDL-interpreted boxes are not exportable) —
// that is a structured error, not a dead session.
func topologyResponse(sess *incr.Session, net *core.Network, hooks serveHooks, id string, dump bool) (any, error) {
	reports := sess.CurrentReports()
	w := wireTopology{
		Op:     "topology",
		Id:     id,
		Seq:    sess.LastApply().Seq,
		Name:   hooks.topoName,
		Source: hooks.topoSource,
	}
	if w.Name == "" {
		w.Name = "builtin"
	}
	if w.Source == "" {
		w.Source = "builtin"
	}
	links := 0
	for _, n := range net.Topo.Nodes() {
		switch n.Kind {
		case topo.Host:
			w.Hosts++
		case topo.Switch:
			w.Switches++
		case topo.Middlebox:
			w.Middleboxes++
		case topo.External:
			w.Externals++
		}
		links += len(net.Topo.Neighbors(n.ID))
	}
	w.Links = links / 2
	var invs []inv.Invariant
	for _, r := range reports {
		invs = append(invs, r.Invariant)
	}
	w.Invariants = len(invs)
	if net.Registry != nil {
		w.Classes = len(net.Registry.Names())
	}
	if dump {
		d, err := netdesc.FromNetwork(w.Name, net, invs)
		if err != nil {
			return nil, err
		}
		w.Desc = d
	}
	return w, nil
}

// wireFaultInjection connects the inject_panic wire op to the session's
// fault hook: arming makes the next group solve panic, exercising the
// whole containment path (worker recover → Apply error, the change undone
// → structured error line, the session as before the request).
func wireFaultInjection(sopts *incr.Options) serveHooks {
	var armed atomic.Bool
	sopts.FaultHook = func(string) {
		if armed.CompareAndSwap(true, false) {
			panic("injected fault (inject_panic)")
		}
	}
	return serveHooks{armFault: func() { armed.Store(true) }}
}

// ingestQueue bounds how far the reader stage may run ahead of the
// handler. Backpressure, not buffering: a slow consumer eventually blocks
// stdin.
const ingestQueue = 64

// maxLineBytes caps one request line (its newline included). A longer
// line is answered with an error line and skipped; stdin is untrusted.
const maxLineBytes = 1 << 20

// inputLine is one line of stdin on its way to the handler: its bytes, or
// why it has none.
type inputLine struct {
	data []byte
	err  error
}

// serve runs the NDJSON loop: one initial result line for the session's
// first verification, then one result (or error) line per input line.
// This is the whole wire protocol of vmnd; the golden-file tests in
// main_test.go drive it directly. Every request is handled under a
// recover(), so a bug anywhere in decode or verification degrades to a
// structured error line and the daemon keeps serving.
//
// A reader goroutine ingests stdin ahead of verification. Requests are
// answered in order, each response flushed before the next is handled:
// response i reflects requests 1..i and nothing later. Result lines are
// spliced by the session into one reused buffer; every other response is
// encoded straight to the writer.
// A nil stop channel disables graceful-shutdown handling (a nil channel
// never fires in a select); main passes the SIGTERM/SIGINT channel. On
// stop, already-read requests drain through the handler — every change
// the daemon acked (or is about to ack) is fully processed and, with
// persistence on, journaled — and serve returns so main can snapshot
// and exit 0. Unread stdin is deliberately left behind: it was never
// acked, and at-least-once clients replay unacked requests by id.
func serve(sess *incr.Session, net *core.Network, in io.Reader, out io.Writer, hooks serveHooks, stop <-chan struct{}) error {
	lines := make(chan inputLine, ingestQueue)
	var readErr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer close(lines)
		br := bufio.NewReaderSize(in, maxLineBytes)
		for {
			data, err := br.ReadSlice('\n')
			var line inputLine
			if err == bufio.ErrBufferFull {
				// Over the cap: one error line for it, skip to its newline,
				// keep serving what follows.
				for err == bufio.ErrBufferFull {
					_, err = br.ReadSlice('\n')
				}
				line.err = fmt.Errorf("request line exceeds %d bytes", maxLineBytes)
			} else {
				// The reader reuses its buffer; the line crosses a stage
				// boundary and must be owned by the receiver.
				line.data = append([]byte(nil), data...)
			}
			if line.err != nil || len(line.data) > 0 {
				select {
				case lines <- line:
				case <-stop:
					return
				}
			}
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				return
			}
		}
	}()

	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	var buf []byte
	write := func(resp any) error {
		if b, ok := resp.([]byte); ok {
			buf = b[:0]
			bw.Write(b) // a write error sticks; Flush reports it
		} else if err := enc.Encode(resp); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := write(sess.AppendResult(buf, "", false)); err != nil {
		return err
	}
	for {
		line, ok := inputLine{}, false
		select {
		case line, ok = <-lines:
		case <-stop:
			// Drain the in-flight (already read and queued) requests, then
			// stop. The reader may stay blocked on a quiet stdin; it holds
			// no state worth waiting for.
			select {
			case line, ok = <-lines:
			default:
			}
		}
		if !ok {
			break
		}
		var resp any
		if line.err != nil {
			resp = incr.WireError{Seq: sess.LastApply().Seq, Error: line.err.Error()}
		} else {
			resp = handle(sess, net, hooks, line.data, buf)
		}
		if resp != nil {
			if err := write(resp); err != nil {
				return err
			}
		}
	}
	// readErr is only settled (and safe to read) once the reader goroutine
	// finished; on the stop path it may still be blocked on stdin — skip
	// it, the daemon is exiting anyway.
	select {
	case <-readerDone:
		if readErr != nil {
			return fmt.Errorf("reading stdin: %w", readErr)
		}
	default:
	}
	return nil
}

// handle processes one request line and returns the response (nil for
// blank lines): a result line spliced into buf, or a value to encode.
// Panics are contained here and answered as structured error lines
// carrying the request's op and id when they were parseable.
func handle(sess *incr.Session, net *core.Network, hooks serveHooks, line, buf []byte) (resp any) {
	var op, id string
	fail := func(err error) any {
		return incr.WireError{Seq: sess.LastApply().Seq, Error: err.Error(), Op: op, Id: id}
	}
	defer func() {
		if r := recover(); r != nil {
			resp = fail(fmt.Errorf("panic: %v", r))
		}
	}()
	if len(bytes.TrimSpace(line)) == 0 {
		return nil
	}
	req, envelope, err := incr.ParseRequest(line)
	if err != nil {
		return fail(err)
	}
	if envelope {
		op, id = req.Op, req.Id
		switch req.Op {
		case "propose":
			changes, err := incr.DecodeProposeSet(net, req.Changes)
			if err != nil {
				return fail(err)
			}
			out, err := sess.AppendPropose(buf, id, changes)
			if err != nil {
				return fail(err)
			}
			return out
		case "commit":
			ack, err := sess.CommitAck(id)
			if err != nil {
				return fail(err)
			}
			return ack
		case "rollback":
			if err := sess.Rollback(); err != nil {
				return fail(err)
			}
			return incr.WireTxAck{Op: "rollback", Id: id, Seq: sess.LastApply().Seq, RolledBack: true}
		case "inject_panic":
			if hooks.armFault == nil {
				return fail(errors.New("fault injection disabled (run with -fault-injection)"))
			}
			hooks.armFault()
			return incr.WireTxAck{Op: "inject_panic", Id: id, Seq: sess.LastApply().Seq}
		case "stats":
			return statsResponse(sess, id)
		case "topology":
			w, err := topologyResponse(sess, net, hooks, id, req.Name == "dump")
			if err != nil {
				return fail(err)
			}
			return w
		case "persist_status":
			return incr.EncodePersistStatus(id, sess.PersistStatus())
		case "trace":
			w := incr.WireTrace{Op: "trace", Id: id, Seq: sess.LastApply().Seq, Spans: []obs.SpanRecord{}}
			if o := sess.Observability(); o != nil {
				if spans := o.Trace.Drain(); spans != nil {
					w.Spans = spans
				}
			}
			return w
		case "explain":
			recs := sess.Explain()
			if req.Name != "" {
				recs = nil
				if r, ok := sess.ExplainGroup(req.Name); ok {
					recs = []incr.ExplainRecord{r}
				}
			}
			w := incr.EncodeExplain(net.Topo, id, sess.LastApply().Seq, recs)
			if w.Groups == nil {
				w.Groups = []incr.WireExplainGroup{}
			}
			return w
		}
	}
	// A change-set — an apply_batch's list, coalesced, or a plain line (a
	// single object or an array): decode and apply. Decoding is pure, so
	// nothing needs deciding before it: a pending propose is refused by the
	// apply, under the session's lock. A replayed request id is acked with
	// an empty body before its own is decoded: against the state the
	// first delivery produced it may no longer decode, and an
	// at-least-once client is still owed the ack it missed.
	var changes []incr.Change
	batch := op == "apply_batch"
	switch {
	case sess.IsApplied(id):
	case batch:
		changes, err = incr.DecodeChanges(net, req.Changes)
	default:
		changes, err = incr.DecodeChangeSet(net, line)
	}
	if err != nil {
		return fail(err)
	}
	out, err := sess.AppendApply(buf, id, changes, batch)
	if err != nil {
		return fail(err)
	}
	return out
}

// statsResponse assembles the "stats" introspection answer from the
// session's lifetime counters, canonicalization stats, aggregate solver
// work, and (when observability is on) a flat metrics-registry snapshot.
func statsResponse(sess *incr.Session, id string) incr.WireStats {
	classes, sharedChecks, encTranslated := sess.CanonStats()
	ss := sess.SolverStats()
	w := incr.WireStats{
		Op:                 "stats",
		Id:                 id,
		Seq:                sess.LastApply().Seq,
		Totals:             incr.EncodeTotals(sess.TotalStats()),
		CanonClasses:       classes,
		CanonSharedChecks:  sharedChecks,
		CanonEncTranslated: encTranslated,
		Solver: incr.WireSolverStats{
			Decisions:    ss.Decisions,
			Propagations: ss.Propagations,
			Conflicts:    ss.Conflicts,
			Restarts:     ss.Restarts,
			Learnt:       ss.Learnt,
		},
	}
	if o := sess.Observability(); o != nil {
		w.Metrics = o.Metrics.Snapshot()
	}
	if rec := sess.Recovery(); rec.Recovered {
		w.RecoveredGroups = rec.RecoveredGroups
		w.ReverifiedOnRecovery = rec.ReverifiedOnRecovery
	}
	return w
}

// serveHTTP exposes the metrics registry in Prometheus text format at
// /metrics plus the stdlib pprof handlers at /debug/pprof/ on addr,
// in the background for the life of the daemon.
func serveHTTP(addr string, o *obs.Obs) (gonet.Addr, error) {
	ln, err := gonet.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		o.Metrics.WritePrometheus(w)
	})
	// net/http/pprof registers on the default mux; mount it under the
	// canonical prefix.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	go http.Serve(ln, mux)
	return ln.Addr(), nil
}

func main() {
	var (
		topology  = flag.String("topology", "", "serve a vmn-topology/1 description file instead of a built-in network")
		network   = flag.String("network", "datacenter", "enterprise | datacenter | multitenant | isp")
		subnets   = flag.Int("subnets", 6, "subnets (enterprise, isp)")
		groups    = flag.Int("groups", 4, "policy groups (datacenter)")
		tenants   = flag.Int("tenants", 3, "tenants (multitenant)")
		peerings  = flag.Int("peerings", 2, "peering points (isp)")
		withCache = flag.Bool("with-caches", false, "add caches and data servers (datacenter)")
		engine    = flag.String("engine", "auto", "auto | sat | explicit")
		workers   = flag.Int("workers", 0, "verification workers: check pool and explicit-engine search (0 = GOMAXPROCS)")
		noSym     = flag.Bool("no-symmetry", false, "verify every invariant individually")
		timeout   = flag.Duration("timeout", 0,
			"per-request wall-clock budget (0 = none); checks past the deadline degrade to budget_exceeded verdicts")
		maxConflicts = flag.Int64("max-conflicts", 0,
			"per-solve SAT conflict budget (0 = unlimited); exhausted solves report outcome unknown with budget_exceeded")
		faultInj = flag.Bool("fault-injection", false,
			"enable the inject_panic test op (forces a panic in the next solve; containment testing only)")
		httpAddr = flag.String("http", "",
			"serve Prometheus metrics (/metrics) and pprof (/debug/pprof/) on this address (e.g. :9090; empty = off)")
		slowSolve = flag.Duration("slow-solve", 0,
			"log solves at or above this wall clock as NDJSON on stderr (e.g. 50ms; 0 = off)")
		traceBuf = flag.Int("trace-buf", 4096,
			"span ring-buffer capacity for the trace op (0 disables tracing)")
		stateDir = flag.String("state-dir", "",
			"state directory for crash-safe persistence (journal + snapshots); empty = in-memory only")
		fsync = flag.String("fsync", "always",
			"journal fsync policy: always (every record durable before its ack) | none (page cache only; a machine crash can lose the tail, detected as torn on restart)")
		snapshotEvery = flag.Int("snapshot-every", 64,
			"compact the journal into a snapshot after this many records (<0 disables periodic snapshots)")
	)
	flag.Parse()

	eng, err := core.ParseEngine(*engine)
	if err != nil {
		fail("%v", err)
	}
	opts := core.Options{Engine: eng, MaxConflicts: *maxConflicts, Workers: *workers}

	// A topology file replaces the built-in network wholesale. Loading is
	// all-or-nothing: a malformed or adversarial file produces exactly one
	// structured file:line:field error and exit 2 before any session state
	// exists — the daemon never serves a partially built network.
	var (
		net      *core.Network
		invs     []inv.Invariant
		topoName = *network
		topoSrc  = "builtin"
	)
	if *topology != "" {
		var d *netdesc.Desc
		d, net, invs, err = netdesc.BuildFile(*topology)
		if err != nil {
			fail("%v", err)
		}
		topoName, topoSrc = d.Name, *topology
	} else {
		net, invs, err = buildNetwork(netConfig{
			network:   *network,
			subnets:   *subnets,
			groups:    *groups,
			tenants:   *tenants,
			peerings:  *peerings,
			withCache: *withCache,
		})
		if err != nil {
			fail("%v", err)
		}
	}

	// The daemon always runs with observability on: the stats/trace wire
	// ops and the -http endpoint serve from this handle. Library users get
	// the nil (disabled) default unless they opt in.
	o := obs.New(*traceBuf)
	sopts := incr.Options{
		NoSymmetry:     *noSym,
		RequestTimeout: *timeout,
		Obs:            o, SlowSolve: *slowSolve,
	}
	if *stateDir != "" {
		sync, err := store.ParseSyncPolicy(*fsync)
		if err != nil {
			fail("%v", err)
		}
		sopts.Persist = &incr.PersistOptions{
			Dir:           *stateDir,
			Sync:          sync,
			SnapshotEvery: *snapshotEvery,
		}
	}
	var hooks serveHooks
	if *faultInj {
		hooks = wireFaultInjection(&sopts)
	}
	hooks.topoName, hooks.topoSource = topoName, topoSrc
	if *httpAddr != "" {
		addr, err := serveHTTP(*httpAddr, o)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "vmnd: metrics and pprof on http://%s\n", addr)
	}
	sess, _, err := incr.NewSession(net, opts, invs, sopts)
	if err != nil {
		fail("%v", err)
	}
	if rec := sess.Recovery(); rec.Enabled {
		switch {
		case rec.Recovered:
			fmt.Fprintf(os.Stderr,
				"vmnd: warm restart from %s: snapshot seq %d + %d journal records, %d groups from the verdict store, %d re-verified\n",
				*stateDir, rec.SnapshotSeq, rec.JournalRecords, rec.RecoveredGroups, rec.ReverifiedOnRecovery)
		case rec.ColdStart:
			fmt.Fprintf(os.Stderr, "vmnd: cold start (%s); damaged state moved aside in %s\n", rec.Reason, *stateDir)
		default:
			fmt.Fprintf(os.Stderr, "vmnd: fresh state directory %s\n", *stateDir)
		}
	}

	// SIGTERM/SIGINT: stop reading, drain the in-flight requests, write
	// a final snapshot (Shutdown below), exit 0. A second signal kills
	// the process the hard way via Go's default disposition reset.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		signal.Stop(sigc)
		close(stop)
	}()

	if err := serve(sess, net, os.Stdin, os.Stdout, hooks, stop); err != nil {
		fail("%v", err)
	}
	// EOF and signal land here alike: make the session durable and leave
	// cleanly. Shutdown without persistence is a no-op.
	if err := sess.Shutdown(); err != nil {
		fail("shutdown: %v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vmnd: "+format+"\n", args...)
	os.Exit(2)
}
