# Development and CI entry points. `make ci` is the full gate: formatting,
# vet, build, race-enabled tests and a one-shot benchmark smoke run.

GO ?= go

.PHONY: ci fmt vet build test race loc loc-check bench-harness bench-smoke fuzz-smoke vmnd-smoke vmnd-restart-smoke examples-validate topo-smoke bench-json

ci: fmt vet loc-check build race bench-harness fuzz-smoke vmnd-smoke vmnd-restart-smoke examples-validate topo-smoke bench-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Non-test Go lines per package, benchmark/ excluded: the ruler for the
# roadmap's "the line count goes down".
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# The roadmap's "`make loc` total must not rise across the round" as a
# failing check. A PR that shrinks the tree lowers the ceiling to its own
# total; one that has to grow it says why in CHANGES.md and raises it.
LOC_CEILING = 22054
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_CEILING) ]; then \
		echo "make loc: $$total non-test lines, over the ceiling of $(LOC_CEILING)"; exit 1; fi

# Race-enabled tests plus a live-daemon smoke under the race detector
# with the full observability surface armed (metrics/pprof listener,
# phase tracing, slow-solve logging): the crash corpus drives spans and
# counters from the worker pool concurrently with the HTTP exporter. The
# worker-count determinism tests, the journey cache's single-flight tests,
# the shared-journey differential, the class-declaration property it rests
# on (RelevantClassesCover) and the failed-apply undo (its panic
# comes from a pool worker) run again
# at GOMAXPROCS 1, 2 and 8, the widths the check pool's default takes from
# it.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,8 -run 'WorkersBitIdentical|ForEachIndexed|JourneyMemoAcrossInvariants|JourneyCacheSingleFlight|SharedJourneysMatchPerClass|RelevantClassesCover|FailedApplyLeavesNoTrace' ./internal/bench ./internal/core ./internal/encode ./internal/incr ./internal/mbox
	$(GO) run -race ./cmd/vmnd -network datacenter -groups 3 -fault-injection \
		-http 127.0.0.1:0 -slow-solve 1ns \
		< cmd/vmnd/testdata/crash_corpus.ndjson > /dev/null

# benchmark/ (vmnperf) is a module of its own, so `go vet ./...` and
# `go test ./...` from the root skip it: vet it and run its smoke tests
# (generator determinism, an in-process replay against its oracle, span
# accounting, BENCHMARK.json against the metric tables) here, under the
# race detector.
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test -race .

# One iteration of every Fig2 benchmark (SAT and explicit engines) and one
# run of the same points through the vmnbench CLI's figure table: a fast
# sanity check that the measured paths still run. BenchmarkReplyRender
# keeps the daemon's apply call (AppendApply: apply, spliced line)
# exercised on each of its cases: a firewall flip, a relabel moving a
# member out of its group and back, a firewall down and up, a dead allow.
# BenchmarkPropose does the same for the daemon's propose call and a
# rollback: a dead allow, a relabel (accepted) and a relabel with a deny
# (rejected, repair searched).
# BenchmarkColdVerifyAll and BenchmarkColdVerifyAllFile run one cold
# VerifyAll of the 2-group cache datacenter, in memory (two slice
# encodings, four checks shared canonically) and exported and built back
# as cachefarm-cold verifies it (six encodings).
bench-smoke:
	$(GO) test -run '^$$' -bench Fig2 -benchtime 1x .
	$(GO) test -run '^$$' -bench 'ReplyRender|Propose' -benchtime 1x ./internal/incr
	$(GO) test -run '^$$' -bench ColdVerifyAll -benchtime 1x ./internal/core
	$(GO) run ./cmd/vmnbench -fig 2,explicit -runs 1 -json > /dev/null

# A short coverage-guided run of each fuzz target beyond its checked-in
# seed corpus: the differential churn fuzzer (Session.Apply bit-identical
# to from-scratch VerifyAll, with Propose/Commit/Rollback transaction modes
# riding the op bytes, and an injected solve fault whose failed step must
# leave the session as before), the configuration keys (equal read keys over a
# universe mean identical Process behaviour on it, and all three keys drop
# exactly the entries dead on it), the wire
# decoder (every decode entry point is pure: it never changes the canonical
# dump of the live network), the request-envelope parser the daemon runs
# per input line (stats/trace/explain and transaction shapes must never
# panic) and state recovery (arbitrary snapshot and journal payloads
# recover or cold-start with a reason, never half-restore); the topology
# decoder (never a panic, and Build with no Validate first fails exactly
# when Decode does, on the same field); the table-patch
# differential (a patched tf.Tables behaves as tf.New on the same FIB after
# every edit), the trimmed-delta property (head/tail trimming changes no
# dirtying verdict or witness) and the group table (its posting lists equal
# a recount from its records, resolve agrees with a per-record classify
# scan, undoing a trail armed mid-run restores the table as it was then and
# redoing it the final one) and the LRU every
# bounded cache is (contents, recency order, capacity and evictions match a
# plain slice model under get/peek/put/pin/unpin) and cone grounding (an
# encoding that grounds each invariant's cone on demand returns the verdict
# and witness of one grounded up front, in any order of invariants) and the
# SAT solver (every verdict, model and assumption conflict agrees with brute
# force over ≤ 12 variables, across interleaved clauses, solves and releases).
# `go test -fuzz` takes one target per invocation. Each minimizes a new
# input for at most a second: the default minute would spend the rest of a
# short run there, executing nothing new.
fuzz-smoke:
	$(GO) test ./internal/tf -run '^$$' -fuzz '^FuzzTablesPatch$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/lru -run '^$$' -fuzz '^FuzzLRU$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/mbox -run '^$$' -fuzz '^FuzzConfigKeys$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/incr -run '^$$' -fuzz '^FuzzTrimmedDelta$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/incr -run '^$$' -fuzz '^FuzzGroupTable$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/incr -run '^$$' -fuzz '^FuzzSessionDifferential$$' -fuzztime 15s -fuzzminimizetime 1s
	$(GO) test ./internal/incr -run '^$$' -fuzz '^FuzzDecodeChangeSet$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/incr -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/incr -run '^$$' -fuzz '^FuzzRestoreState$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDecodeJournal$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/netdesc -run '^$$' -fuzz '^FuzzDecodeTopology$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/encode -run '^$$' -fuzz '^FuzzConeGrounding$$' -fuzztime 5s -fuzzminimizetime 1s
	$(GO) test ./internal/sat -run '^$$' -fuzz '^FuzzSolver$$' -fuzztime 10s -fuzzminimizetime 1s

# Every committed example topology must validate and build (one structured
# file:line:field error otherwise); byte-level canonical-form checking
# lives in TestExampleFiles (internal/netdesc).
examples-validate:
	@for f in examples/topologies/*.json; do \
		$(GO) run ./cmd/vmn -topology $$f -check || exit 1; done

# Topology-frontend smoke: generate a k=16 fat-tree (592 nodes) to disk,
# then load and verify it end-to-end through the real CLI.
topo-smoke:
	@tmp=$$(mktemp -d); rc=0; \
	$(GO) run ./cmd/vmn -gen fattree -k 16 -out $$tmp/fattree-k16.json && \
	$(GO) run ./cmd/vmn -topology $$tmp/fattree-k16.json > /dev/null || rc=$$?; \
	rm -rf $$tmp; exit $$rc

# vmnd crash-resilience smoke: pipe the malformed / out-of-order /
# panic-injecting request corpus through a live daemon; the gate here is
# exit status 0 (the daemon must never crash). Line-by-line validation of
# the responses lives in TestCrashResilience (cmd/vmnd). A request line over
# the 1 MiB cap goes in front of the corpus, as it does there.
vmnd-smoke:
	{ head -c 1100000 /dev/zero | tr '\0' x; echo; cat cmd/vmnd/testdata/crash_corpus.ndjson; } | \
		$(GO) run ./cmd/vmnd -network datacenter -groups 3 -fault-injection > /dev/null

# vmnd restart drill against the real binary: apply acked changes with a
# state directory, kill -9 mid-session, restart on the same directory and
# assert the warm start re-verifies nothing (zero cache misses, zero
# lifetime solves) and that SIGTERM drains and exits 0.
vmnd-restart-smoke:
	$(GO) test ./cmd/vmnd -run '^TestRestartSmoke$$' -count 1

# Machine-readable series of the paper figures. End-to-end and per-layer
# numbers (daemon, incremental session, topology frontend) come from
# benchmark/run.sh, the command BENCHMARK.json declares.
bench-json:
	$(GO) run ./cmd/vmnbench -fig 2,explicit -runs 5 -json
