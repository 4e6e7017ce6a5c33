package main

// Golden-file tests for the NDJSON wire protocol: every supported op (and
// the malformed-input error paths) gets one recorded exchange — the
// initial verification result line plus one result/error line per input
// line — so any change to the wire format shows up as a reviewable diff.
// Regenerate with:
//
//	go test ./cmd/vmnd -run TestGolden -update
//
// Durations are nondeterministic and normalized to 0 before comparison
// (and in the recorded files).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/netverify/vmn/internal/core"
	"github.com/netverify/vmn/internal/incr"
	"github.com/netverify/vmn/internal/netdesc"
	"github.com/netverify/vmn/internal/obs"
	"github.com/netverify/vmn/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files")

var (
	durationRe = regexp.MustCompile(`"duration_ns":\d+`)
	startRe    = regexp.MustCompile(`"start_ns":\d+`)
	// Any JSON field whose key mentions seconds or _ns carries wall-clock
	// data (span timestamps, latency-histogram buckets and sums, busy-time
	// counters) and is zeroed; counts and verdicts stay exact.
	timingRe = regexp.MustCompile(`"([^"]*(?:seconds|_ns)[^"]*)":[-+0-9.eE]+`)
	// The state directory is a per-run temp path.
	stateDirRe = regexp.MustCompile(`"dir":"[^"]*"`)
)

func normalize(b []byte) []byte {
	b = durationRe.ReplaceAll(b, []byte(`"duration_ns":0`))
	b = startRe.ReplaceAll(b, []byte(`"start_ns":0`))
	b = stateDirRe.ReplaceAll(b, []byte(`"dir":"STATEDIR"`))
	return timingRe.ReplaceAll(b, []byte(`"$1":0`))
}

// exchange builds a fresh session over the small datacenter and drives the
// wire loop with the given input lines.
func exchange(t *testing.T, lines []string) []byte {
	t.Helper()
	return exchangeOpts(t, lines, 1, incr.Options{}, false)
}

// exchangeOpts is exchange with an explicit worker count and session
// options, and optional fault injection (the inject_panic op).
func exchangeOpts(t *testing.T, lines []string, workers int, sopts incr.Options, faultInj bool) []byte {
	t.Helper()
	net, invs, err := buildNetwork(netConfig{network: "datacenter", groups: 3})
	if err != nil {
		t.Fatal(err)
	}
	var hooks serveHooks
	if faultInj {
		hooks = wireFaultInjection(&sopts)
	}
	sess, _, err := incr.NewSession(net, core.Options{Engine: core.EngineSAT, Workers: workers}, invs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	var out bytes.Buffer
	if err := serve(sess, net, in, &out, hooks, nil); err != nil {
		t.Fatal(err)
	}
	return normalize(out.Bytes())
}

func TestGoldenWireProtocol(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
	}{
		{"node_down", []string{`{"op":"node_down","node":"fw1"}`}},
		{"node_up", []string{
			`{"op":"node_down","node":"h2-0"}`,
			`{"op":"node_up","node":"h2-0"}`,
		}},
		{"relabel", []string{`{"op":"relabel","node":"h0-0","class":"broken-0"}`}},
		{"fw_allow", []string{`{"op":"fw_allow","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}`}},
		{"fw_deny", []string{`{"op":"fw_deny","node":"fw1","src":"10.2.0.0/24","dst":"*"}`}},
		{"fw_del", []string{`{"op":"fw_del","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}`}},
		{"box_remove", []string{`{"op":"box_remove","node":"ids2"}`}},
		// box_state binds a box at a middlebox whether or not one is bound
		// there: a removed box comes back, and a host is refused.
		{"box_rebind", []string{
			`{"op":"box_remove","node":"ids2"}`,
			`{"op":"box_state","node":"h0-0","box":{"type":"idps"}}`,
			`{"op":"box_state","node":"ids2","box":{"type":"idps"}}`,
		}},
		{"inv_add", []string{
			`{"op":"inv_add","invariant":{"type":"reachability","dst":"h1-0","src_addr":"10.0.0.1","label":"leak?"}}`,
		}},
		{"inv_remove", []string{
			`{"op":"inv_add","invariant":{"type":"simple_isolation","dst":"h2-0","src_addr":"10.0.0.1","label":"extra"}}`,
			`{"op":"inv_remove","name":"extra"}`,
		}},
		{"noop", []string{`{"op":"noop"}`}},
		// A liveness toggle changes every report's scenario, the groups it
		// leaves clean included, and toggling back restores it, noops
		// between; the replayed id then acks the current verdicts (h2-0 up)
		// with the counters of no work.
		{"liveness_replay", []string{
			`{"op":"node_down","node":"h2-0","id":"d1"}`,
			`{"op":"noop"}`,
			`{"op":"node_up","node":"h2-0"}`,
			`{"op":"noop"}`,
			`{"op":"node_down","node":"h2-0","id":"d1"}`,
		}},
		{"change_set", []string{
			`[{"op":"fw_del","node":"fw2","src":"10.0.0.0/24","dst":"10.1.0.0/24"},` +
				`{"op":"relabel","node":"h0-0","class":"broken-0"},` +
				`{"op":"relabel","node":"h1-0","class":"broken-1"}]`,
		}},
		{"malformed", []string{
			`not json at all`,
			`{"op":"frobnicate"}`,
			`{"op":"node_down","node":"nope"}`,
			`{"op":"fw_deny","node":"ids1","src":"10.0.0.0/24","dst":"*"}`,
			`{"op":"fw_deny","node":"fw1","src":"999.0.0.0/24","dst":"*"}`,
			`{"op":"inv_add","invariant":{"type":"weird","dst":"h0-0"}}`,
			`{"op":"noop"}`,
		}},
		// A batch where coalescing is visible on the wire: two relabels of
		// one host keep only the last writer and a down-then-up pair
		// collapses to the (no-op) up, so 4 enqueued changes apply as 2 and
		// the result reports enqueued/coalesced.
		{"apply_batch", []string{
			`{"op":"apply_batch","id":"b1","changes":[` +
				`{"op":"relabel","node":"h0-0","class":"x"},` +
				`{"op":"relabel","node":"h0-0","class":"broken-0"},` +
				`{"op":"node_down","node":"h2-0"},` +
				`{"op":"node_up","node":"h2-0"}]}`,
		}},
		// An add-then-delete pair of one firewall entry nets out to the
		// original ACL; the two box swaps coalesce to the last one and the
		// rule-read projections are unchanged — nothing dirtied.
		{"apply_batch_annihilate", []string{
			`{"op":"apply_batch","id":"b1","changes":[` +
				`{"op":"fw_deny","node":"fw1","src":"10.9.0.0/24","dst":"*"},` +
				`{"op":"fw_del","node":"fw1","src":"10.9.0.0/24","dst":"*"}]}`,
		}},
		// apply_batch refuses while a propose is pending and works after
		// rollback.
		{"apply_batch_pending", []string{
			`{"op":"propose","id":"p1","changes":[{"op":"node_down","node":"h2-0"}]}`,
			`{"op":"apply_batch","id":"b1","changes":[{"op":"node_down","node":"fw1"}]}`,
			`{"op":"rollback","id":"p2"}`,
			`{"op":"apply_batch","id":"b2","changes":[{"op":"node_down","node":"fw1"}]}`,
		}},
		// Malformed batches: an invalid change anywhere rejects the whole
		// batch; the trailing noop pins that the session is untouched.
		{"apply_batch_malformed", []string{
			`{"op":"apply_batch","id":"m1","changes":[` +
				`{"op":"fw_deny","node":"fw1","src":"10.9.0.0/24","dst":"*"},` +
				`{"op":"node_down","node":"nope"}]}`,
			`{"op":"apply_batch","id":"m2","changes":[{"op":"frobnicate"}]}`,
			`{"op":"noop"}`,
		}},
		// A benign propose accepted and committed; the trailing noop pins
		// that the committed state (seq, verdicts) is the shadow's.
		{"propose_commit", []string{
			`{"op":"propose","id":"p1","changes":[{"op":"node_down","node":"fw1"}]}`,
			`{"op":"commit","id":"p2"}`,
			`{"op":"noop"}`,
		}},
		// A violating propose rejected with a verified repair suggestion,
		// rolled back; the trailing noop pins that the session is exactly
		// pre-propose (seq 2, verdicts unchanged).
		{"propose_reject", []string{
			`{"op":"propose","id":"r1","changes":[` +
				`{"op":"fw_del","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"},` +
				`{"op":"node_down","node":"h2-0"}]}`,
			`{"op":"rollback","id":"r2"}`,
			`{"op":"noop"}`,
		}},
		// A propose whose shadow run benefits from prefix/rule-level
		// dirtying: the response surfaces refined_clean — the number of
		// groups the refined index kept clean where node-granularity
		// dirtying would have re-verified them — so a deployment pipeline
		// can see the blast-radius estimate for the proposed change.
		{"propose_refined", []string{
			`{"op":"propose","id":"rc1","changes":[{"op":"fw_del","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}]}`,
			`{"op":"rollback","id":"rc2"}`,
		}},
		// Out-of-order transaction sequences: every ordering violation is
		// a typed error and the session keeps serving.
		{"tx_ordering", []string{
			`{"op":"commit","id":"o1"}`,
			`{"op":"rollback","id":"o2"}`,
			`{"op":"propose","id":"o3","changes":[{"op":"node_down","node":"h2-0"}]}`,
			`{"op":"propose","id":"o4","changes":[{"op":"noop"}]}`,
			`{"op":"node_up","node":"h2-0"}`,
			`{"op":"rollback","id":"o5"}`,
			`{"op":"noop"}`,
		}},
		// Malformed propose bodies: bad JSON shapes, unknown nodes and
		// unknown ops (box_reconfig among them) are all rejected without
		// touching the session.
		{"propose_malformed", []string{
			`{"op":"propose","id":"m1","changes":"not an array"}`,
			`{"op":"propose","id":"m2","changes":[{"op":"box_reconfig","node":"fw2"}]}`,
			`{"op":"propose","id":"m3","changes":[{"op":"fw_del","node":"nope","src":"10.0.0.0/24","dst":"*"}]}`,
			`{"op":"propose","id":"m4","changes":[{"op":"frobnicate"}]}`,
			`{"op":"inject_panic","id":"m5"}`,
			`{"op":"noop"}`,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := exchange(t, c.lines)
			path := filepath.Join("testdata", "golden", c.name+".ndjson")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire exchange diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// TestGoldenObservability pins the introspection wire shapes: stats
// (lifetime totals + canonicalization + solver work + metrics snapshot),
// trace (drained span tree of the preceding applies), and explain
// (dirtying provenance down to the witness read atom, plus how each
// re-verified verdict was obtained). Sessions run with observability on
// and one worker, which makes span ids, orders, and all counters
// deterministic; wall-clock fields are normalized to 0.
func TestGoldenObservability(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
	}{
		// A liveness change dirties via the coarse node channel: explain
		// names the node and the change that took it down.
		{"obs_explain_node", []string{
			`{"op":"node_down","node":"fw1"}`,
			`{"op":"explain","id":"e1"}`,
		}},
		// A firewall rule deletion dirties via the box rule-read projection
		// channel: explain names the reconfigured box, and only the groups
		// whose projection actually changed re-verify (fresh solves here —
		// the others stay refined-clean and have no record).
		{"obs_explain_fwdel", []string{
			`{"op":"fw_del","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"}`,
			`{"op":"explain","id":"e1"}`,
		}},
		{"obs_stats", []string{
			`{"op":"node_down","node":"fw1"}`,
			`{"op":"stats","id":"s1"}`,
		}},
		{"obs_trace", []string{
			`{"op":"node_down","node":"fw1"}`,
			`{"op":"trace","id":"t1"}`,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := exchangeOpts(t, c.lines,
				1, incr.Options{Obs: obs.New(256)}, false)
			path := filepath.Join("testdata", "golden", c.name+".ndjson")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire exchange diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// TestDuplicateAckDidNoWork: a replayed request id is acked with the
// current verdicts and the counters of a request that did nothing, not
// with those of the Apply before it.
func TestDuplicateAckDidNoWork(t *testing.T) {
	out := exchange(t, []string{
		`{"op":"node_down","node":"fw1","id":"a1"}`,
		`{"op":"node_down","node":"fw1","id":"a1"}`,
	})
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), out)
	}
	var applied, dup incr.WireResult
	if err := json.Unmarshal(lines[1], &applied); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[2], &dup); err != nil {
		t.Fatal(err)
	}
	if applied.DirtyGroups == 0 {
		t.Fatalf("the first delivery dirtied nothing: %s", lines[1])
	}
	if !dup.Duplicate || dup.DirtyGroups != 0 || dup.CacheHits != 0 || dup.CanonHits != 0 || dup.Changes != 0 {
		t.Errorf("duplicate ack reports work it did not do: %s", lines[2])
	}
	if dup.Seq != applied.Seq || dup.Unsatisfied != applied.Unsatisfied || !reflect.DeepEqual(dup.Reports, applied.Reports) {
		t.Errorf("duplicate ack does not carry the current verdicts:\n%s\n%s", lines[1], lines[2])
	}
}

// exchangePersist is exchange with a persistent session over dir. After
// the input drains the session shuts down cleanly (final snapshot), or with
// kill set is abandoned as a SIGKILL would leave it: the journal is all
// the next run has.
func exchangePersist(t *testing.T, lines []string, dir string, kill bool) []byte {
	t.Helper()
	net, invs, err := buildNetwork(netConfig{network: "datacenter", groups: 3})
	if err != nil {
		t.Fatal(err)
	}
	sopts := incr.Options{Persist: &incr.PersistOptions{Dir: dir}}
	sess, _, err := incr.NewSession(net, core.Options{Engine: core.EngineSAT, Workers: 1}, invs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	var out bytes.Buffer
	if err := serve(sess, net, in, &out, serveHooks{}, nil); err != nil {
		t.Fatal(err)
	}
	if kill {
		return normalize(out.Bytes())
	}
	if err := sess.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return normalize(out.Bytes())
}

// TestGoldenPersistence pins the durability wire shapes across a
// restart: exchange 1 applies a change with a request id, inspects
// persist_status, and shuts down; exchange 2 recovers from the same
// state directory — its init line serves entirely from the restored
// verdict store, persist_status reports the warm restart, the replayed
// request id answers duplicate:true without re-applying, and stats
// carries the recovered_groups / reverified_on_recovery counters.
func TestGoldenPersistence(t *testing.T) {
	dir := t.TempDir()
	got1 := exchangePersist(t, []string{
		`{"op":"node_down","node":"fw1","id":"req-1"}`,
		`{"op":"persist_status","id":"ps1"}`,
	}, dir, false)
	got2 := exchangePersist(t, []string{
		`{"op":"persist_status","id":"ps2"}`,
		`{"op":"node_down","node":"fw1","id":"req-1"}`,
		`{"op":"stats","id":"st1"}`,
	}, dir, false)
	for i, got := range [][]byte{got1, got2} {
		path := filepath.Join("testdata", "golden", fmt.Sprintf("persistence_run%d.ndjson", i+1))
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("wire exchange diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s",
				path, got, want)
		}
	}
}

// TestGoldenBudgetExceeded pins the degraded-verdict wire shape: with a
// (deliberately immediate) request deadline every solve is cut off, each
// report carries outcome "unknown" with budget_exceeded, and the result
// line counts them; the rejected proposal's repair search is cut off by the
// same deadline and says so (repair_truncated). Deterministic because no
// solver ever runs.
func TestGoldenBudgetExceeded(t *testing.T) {
	got := exchangeOpts(t, []string{
		`{"op":"node_down","node":"fw1"}`,
		`{"op":"propose","id":"b1","changes":[{"op":"node_up","node":"fw1"}]}`,
		`{"op":"rollback","id":"b2"}`,
	}, 1, incr.Options{RequestTimeout: 1}, false)
	path := filepath.Join("testdata", "golden", "budget_exceeded.ndjson")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("budget exchange diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenTopology pins the topology wire op over a file-described
// network: the session is built exactly the way `vmnd -topology` builds
// it, the summary reports the description's name/source and node-kind
// counts, incremental ops address file-described nodes by name, and the
// dump answer re-exports the live (post-change) network as a canonical
// vmn-topology/1 description inline.
func TestGoldenTopology(t *testing.T) {
	d := netdesc.FatTree(2, 1)
	net, invs, err := netdesc.Build(d, "")
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := incr.NewSession(net, core.Options{Engine: core.EngineSAT, Workers: 1}, invs, incr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hooks := serveHooks{topoName: d.Name, topoSource: "fattree-k2.json"}
	lines := []string{
		`{"op":"topology","id":"t1"}`,
		`{"op":"node_down","node":"p0-fw"}`,
		`{"op":"topology","id":"t2","name":"dump"}`,
	}
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	var out bytes.Buffer
	if err := serve(sess, net, in, &out, hooks, nil); err != nil {
		t.Fatal(err)
	}
	got := normalize(out.Bytes())
	path := filepath.Join("testdata", "golden", "topology.ndjson")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire exchange diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestTopologyStartupRejectsMalformed pins the -topology startup
// contract the daemon relies on: a malformed or adversarial description
// file yields one structured *netdesc.Error naming the file (and where
// possible line/field) and NOTHING is built — so main fails before any
// session state exists, never serving a partial network.
func TestTopologyStartupRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, body, field string
	}{
		{"syntax", `{"format":"vmn-topology/1",`, ""},
		{"unknown_field", `{"format":"vmn-topology/1","name":"x","bogus":1,"nodes":[]}`, "bogus"},
		{"dangling_link", `{"format":"vmn-topology/1","name":"x","nodes":[` +
			`{"name":"a","kind":"switch"},{"name":"b","kind":"switch"}],` +
			`"links":[["a","nope"]]}`, "links[0]"},
		{"dup_addr", `{"format":"vmn-topology/1","name":"x","classes":["c"],"nodes":[` +
			`{"name":"a","kind":"host","addr":"10.0.0.1","class":"c"},` +
			`{"name":"b","kind":"host","addr":"10.0.0.1","class":"c"}],` +
			`"links":[["a","b"]]}`, "nodes[1].addr"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".json")
			if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
				t.Fatal(err)
			}
			d, net, invs, err := netdesc.BuildFile(path)
			if d != nil || net != nil || invs != nil {
				t.Fatalf("malformed file must build nothing, got %v / %v / %v", d, net, invs)
			}
			var de *netdesc.Error
			if !errors.As(err, &de) {
				t.Fatalf("want *netdesc.Error, got %T: %v", err, err)
			}
			if de.File == "" {
				t.Fatalf("structured error must name the file: %v", de)
			}
			if c.field != "" && !strings.Contains(de.Field, c.field) {
				t.Fatalf("want field %q in error, got %v", c.field, de)
			}
		})
	}
}

// TestFaultInjection forces a panic inside a solve path (worker pool) and
// asserts the containment contract: the request that hit the panic gets a
// structured error line and leaves the session as before it, so the next
// request finds fw1 still up and answers with correct verdicts.
func TestFaultInjection(t *testing.T) {
	out := exchangeOpts(t, []string{
		`{"op":"inject_panic","id":"f1"}`,
		`{"op":"node_down","node":"fw1"}`, // solve panics here
		`{"op":"node_up","node":"fw1"}`,   // must answer correctly
	}, 2, incr.Options{}, true)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("want init + ack + error + result lines, got %d:\n%s", len(lines), out)
	}
	var ack struct{ Op string }
	if err := json.Unmarshal(lines[1], &ack); err != nil || ack.Op != "inject_panic" {
		t.Fatalf("want inject_panic ack, got %s (err %v)", lines[1], err)
	}
	var werr struct {
		Error string
		Op    string
	}
	if err := json.Unmarshal(lines[2], &werr); err != nil {
		t.Fatalf("error line not JSON: %s (%v)", lines[2], err)
	}
	if !strings.Contains(werr.Error, "injected fault") || werr.Op != "node_down" {
		t.Fatalf("want structured injected-fault error with op, got %s", lines[2])
	}
	var res struct {
		Seq         int
		DirtyGroups int `json:"dirty_groups"`
		Unsatisfied int
		Reports     []struct{ Satisfied bool }
	}
	if err := json.Unmarshal(lines[3], &res); err != nil {
		t.Fatalf("result line not JSON: %s (%v)", lines[3], err)
	}
	// The panicked Apply was undone, its seq with it: node_up is seq 2,
	// finds fw1 up (nothing to re-verify) and answers all-green.
	if res.Seq != 2 || res.DirtyGroups != 0 || res.Unsatisfied != 0 || len(res.Reports) != 6 {
		t.Fatalf("daemon did not answer correctly after the panic: %s", lines[3])
	}
}

// TestCrashResilience drives the serve loop with the shared corpus of
// malformed, out-of-order, and panic-triggering requests and asserts the
// daemon contract: serve returns nil (exit 0), every output line is valid
// JSON, and the daemon still answers the corpus's final noop with a
// result line. The same corpus backs the `make vmnd-smoke` pipeline
// against the real binary.
func TestCrashResilience(t *testing.T) {
	corpus, err := os.ReadFile(filepath.Join("testdata", "crash_corpus.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	net, invs, err := buildNetwork(netConfig{network: "datacenter", groups: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sopts incr.Options
	hooks := wireFaultInjection(&sopts)
	sess, _, err := incr.NewSession(net, core.Options{Engine: core.EngineSAT, Workers: 2}, invs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	// The corpus file stays small: the one case that cannot, a request line
	// over the 1 MiB cap, goes in front of it here (and in `make
	// vmnd-smoke`). It costs one error line; everything behind it is served.
	oversize := append(bytes.Repeat([]byte("x"), maxLineBytes+1), '\n')
	var out bytes.Buffer
	if err := serve(sess, net, io.MultiReader(bytes.NewReader(oversize), bytes.NewReader(corpus)), &out, hooks, nil); err != nil {
		t.Fatalf("serve must survive the crash corpus: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("output line %d is not valid JSON: %q", i, line)
		}
	}
	if want := `"error":"request line exceeds 1048576 bytes"`; !bytes.Contains(lines[1], []byte(want)) {
		t.Fatalf("the oversize line was answered with %s, want %s", lines[1], want)
	}
	if n := bytes.Count(corpus, []byte("\n")); len(lines) != 2+n {
		t.Fatalf("%d output lines for the init line, the oversize line and %d corpus lines", len(lines), n)
	}
	// The corpus ends by applying request cr1, failing the next apply with
	// an injected panic and replaying cr1: the replay's ack must carry the
	// verdicts of the state the failed apply left as it was.
	var last struct {
		Seq       int
		Id        string
		Duplicate bool
		Reports   []struct{ Satisfied bool }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Id != "cr1" || !last.Duplicate {
		t.Fatalf("the final line is not the replay of cr1: %s", lines[len(lines)-1])
	}
	if len(last.Reports) != 6 {
		t.Fatalf("daemon did not answer the final request with a full report set: %s",
			lines[len(lines)-1])
	}
	for _, r := range last.Reports {
		if !r.Satisfied {
			t.Fatalf("final verdicts wrong after the crash corpus: %s", lines[len(lines)-1])
		}
	}
}

// TestGoldenCrashCorpusJournal pins, byte for byte, the journal records the
// crash corpus leaves in a state directory (one per line): a store written
// by one build replays in the next only while these bytes hold.
func TestGoldenCrashCorpusJournal(t *testing.T) {
	corpus, err := os.ReadFile(filepath.Join("testdata", "crash_corpus.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	net, invs, err := buildNetwork(netConfig{network: "datacenter", groups: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sopts := incr.Options{Persist: &incr.PersistOptions{Dir: dir, SnapshotEvery: -1}}
	hooks := wireFaultInjection(&sopts)
	sess, _, err := incr.NewSession(net, core.Options{Engine: core.EngineSAT, Workers: 1}, invs, sopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := serve(sess, net, bytes.NewReader(corpus), io.Discard, hooks, nil); err != nil {
		t.Fatal(err)
	}
	j, recs, err := store.OpenJournal(filepath.Join(dir, "journal.wal"), store.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	got := append(bytes.Join(recs, []byte("\n")), '\n')
	path := filepath.Join("testdata", "golden", "crash_corpus_journal.ndjson")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenErrorLinesKeepSession pins that a malformed line leaves the
// session usable: the error line carries the last good sequence number and
// the next valid line still produces a result.
func TestGoldenErrorLinesKeepSession(t *testing.T) {
	out := exchange(t, []string{
		`{"op":"frobnicate"}`,
		`{"op":"node_down","node":"fw1"}`,
	})
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("want init + error + result lines, got %d:\n%s", len(lines), out)
	}
	if !bytes.Contains(lines[1], []byte(`"error"`)) {
		t.Fatalf("second line should be an error: %s", lines[1])
	}
	if !bytes.Contains(lines[2], []byte(`"seq":2`)) {
		t.Fatalf("session should continue after an error line: %s", lines[2])
	}
}

// TestRestartSmoke is the end-to-end restart drill against the REAL
// binary (`make vmnd-restart-smoke`): run vmnd with a state directory,
// apply a net-zero change pair, SIGKILL it mid-session, restart on the
// same directory, and assert the warm restart re-verified nothing —
// the init line reports zero cache misses and stats reports zero
// lifetime solves — then SIGTERM exits 0 after a graceful drain.
func TestRestartSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "vmnd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building vmnd: %v\n%s", err, out)
	}
	dir := t.TempDir()
	args := []string{"-network", "datacenter", "-groups", "3", "-engine", "sat", "-state-dir", dir}

	// Run 1: init, two acked changes that net out to the initial state,
	// then SIGKILL — no shutdown snapshot, recovery replays the journal.
	cmd1 := exec.Command(bin, args...)
	in1, err := cmd1.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out1, err := cmd1.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd1.Stderr = os.Stderr
	if err := cmd1.Start(); err != nil {
		t.Fatal(err)
	}
	sc1 := bufio.NewScanner(out1)
	sc1.Buffer(make([]byte, 0, 1<<20), 1<<20)
	readLine := func(sc *bufio.Scanner, what string) []byte {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("EOF waiting for %s (err %v)", what, sc.Err())
		}
		return append([]byte(nil), sc.Bytes()...)
	}
	readLine(sc1, "run 1 init")
	for i, line := range []string{
		`{"op":"node_down","node":"h0-0","id":"r1"}`,
		`{"op":"node_up","node":"h0-0","id":"r2"}`,
	} {
		if _, err := io.WriteString(in1, line+"\n"); err != nil {
			t.Fatal(err)
		}
		ack := readLine(sc1, fmt.Sprintf("run 1 ack %d", i))
		if !bytes.Contains(ack, []byte(fmt.Sprintf(`"id":"r%d"`, i+1))) {
			t.Fatalf("run 1 ack %d missing id: %s", i, ack)
		}
	}
	if err := cmd1.Process.Kill(); err != nil { // SIGKILL, no cleanup
		t.Fatal(err)
	}
	cmd1.Wait()

	// Run 2: warm restart from the journal. The initial verification
	// must be served entirely from the restored verdict store.
	cmd2 := exec.Command(bin, args...)
	in2, err := cmd2.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out2, err := cmd2.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd2.Stderr = os.Stderr
	if err := cmd2.Start(); err != nil {
		t.Fatal(err)
	}
	sc2 := bufio.NewScanner(out2)
	sc2.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var init struct {
		CacheMisses int `json:"cache_misses"`
		Unsatisfied int
	}
	if err := json.Unmarshal(readLine(sc2, "run 2 init"), &init); err != nil {
		t.Fatal(err)
	}
	if init.CacheMisses != 0 || init.Unsatisfied != 0 {
		t.Fatalf("warm restart re-verified: cache_misses=%d unsatisfied=%d",
			init.CacheMisses, init.Unsatisfied)
	}
	if _, err := io.WriteString(in2, `{"op":"persist_status","id":"ps"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	var ps struct {
		Recovered       bool `json:"recovered"`
		ColdStart       bool `json:"cold_start"`
		RecoveredGroups int  `json:"recovered_groups"`
	}
	if err := json.Unmarshal(readLine(sc2, "persist_status"), &ps); err != nil {
		t.Fatal(err)
	}
	if !ps.Recovered || ps.ColdStart || ps.RecoveredGroups == 0 {
		t.Fatalf("not a warm restart: %+v", ps)
	}
	if _, err := io.WriteString(in2, `{"op":"stats","id":"st"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	var st struct {
		Totals struct {
			Solves int `json:"solves"`
		} `json:"totals"`
	}
	if err := json.Unmarshal(readLine(sc2, "stats"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Totals.Solves != 0 {
		t.Fatalf("warm restart on an unchanged network re-solved %d times", st.Totals.Solves)
	}
	// A replayed pre-kill request id answers duplicate without re-applying.
	if _, err := io.WriteString(in2, `{"op":"node_up","node":"h0-0","id":"r2"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if dup := readLine(sc2, "replayed r2"); !bytes.Contains(dup, []byte(`"duplicate":true`)) {
		t.Fatalf("replayed id not deduplicated: %s", dup)
	}

	// Graceful shutdown: SIGTERM drains and exits 0.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, out2) // unblock any final writes
	done := make(chan error, 1)
	go func() { done <- cmd2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		cmd2.Process.Kill()
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	in2.Close()
	in1.Close()
}

// TestRefusedChangeSetLeavesNoTrace pins that a change-set is atomic: when
// its second change cannot apply, the first — a firewall rule that would
// open two isolation invariants — is not installed, not journaled, and not
// there after a kill and restart on the same state directory. The one
// error line names the node.
func TestRefusedChangeSetLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	unsatisfied := func(line []byte) int {
		t.Helper()
		var res struct {
			Unsatisfied *int `json:"unsatisfied"`
		}
		if err := json.Unmarshal(line, &res); err != nil || res.Unsatisfied == nil {
			t.Fatalf("not a result line: %s", line)
		}
		return *res.Unsatisfied
	}
	run1 := bytes.Split(bytes.TrimSpace(exchangePersist(t, []string{
		`[{"op":"fw_allow","node":"fw1","src":"10.0.0.0/24","dst":"10.1.0.0/24"},{"op":"box_remove","node":"h0-0"}]`,
		`{"op":"noop"}`,
		`{"op":"persist_status"}`,
	}, dir, true)), []byte("\n"))
	if len(run1) != 4 {
		t.Fatalf("want init, error, result and status lines, got %d:\n%s", len(run1), bytes.Join(run1, []byte("\n")))
	}
	if want := `"error":"incr: no middlebox model at \"h0-0\""`; !bytes.Contains(run1[1], []byte(want)) {
		t.Fatalf("refusal answered %s, want %s", run1[1], want)
	}
	if n := unsatisfied(run1[2]); n != 0 {
		t.Fatalf("the refused change-set leaked: %d invariants violated after it", n)
	}
	if bytes.Contains(run1[3], []byte(`"journal_records"`)) {
		t.Fatalf("the refused change-set was journaled: %s", run1[3])
	}
	run2 := bytes.Split(bytes.TrimSpace(exchangePersist(t, []string{`{"op":"noop"}`}, dir, true)), []byte("\n"))
	if len(run2) != 2 || unsatisfied(run2[0]) != 0 || unsatisfied(run2[1]) != 0 {
		t.Fatalf("verdicts changed across the restart:\n%s", bytes.Join(run2, []byte("\n")))
	}
}

// TestPrefixesAreCanonical pins that a prefix has one spelling inside the
// daemon: a rule added as 10.9.0.77/24 is the rule 10.9.0.0/24 names, so
// the fw_del removes it and the network is back to what it was.
func TestPrefixesAreCanonical(t *testing.T) {
	out := bytes.Split(bytes.TrimSpace(exchange(t, []string{
		`{"op":"topology","name":"dump"}`,
		`{"op":"fw_allow","node":"fw1","src":"10.9.0.77/24","dst":"1.2.3.4/0"}`,
		`{"op":"fw_del","node":"fw1","src":"10.9.0.0/24","dst":"*"}`,
		`{"op":"topology","name":"dump"}`,
	})), []byte("\n"))
	if len(out) != 5 {
		t.Fatalf("want 5 lines, got %d", len(out))
	}
	var before, after struct {
		Desc json.RawMessage `json:"desc"`
	}
	if err := json.Unmarshal(out[1], &before); err != nil || before.Desc == nil {
		t.Fatalf("no dump in %s", out[1])
	}
	if err := json.Unmarshal(out[4], &after); err != nil || after.Desc == nil {
		t.Fatalf("no dump in %s", out[4])
	}
	if !bytes.Equal(before.Desc, after.Desc) {
		t.Fatalf("fw_del 10.9.0.0/24 did not remove the rule added as 10.9.0.77/24:\n%s", after.Desc)
	}
}
