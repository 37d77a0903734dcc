GO ?= go

.PHONY: check fmt vet build test reach audit race chaos fuzz-smoke examples loc bench bench-compare bench-smoke bench-json

# Full gate: formatting, static checks, build, tests, every non-test
# function reached by a shipped binary, race detector on the
# concurrency-sensitive packages, chaos/recovery identity matrix, ten
# seconds of native fuzzing per decoder-facing target, every example
# program run to completion, and the scan-copy audit.
check: fmt vet build test reach audit race chaos fuzz-smoke examples

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet also fails if encoding/gob is linked into any package: every byte
# the module reads from a disk or a socket goes through the bounds-checked
# codec of internal/snapshot, never through a decoder that reflects.
vet:
	$(GO) vet ./...
	@! $(GO) list -deps ./... | grep -x 'encoding/gob' || { echo "vet: encoding/gob is linked (see above)"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# reach fails on any function declared in a non-test file outside
# benchmark/ that no shipped binary (cmd/*, examples/*) links, unless
# reach_allow.txt names it with one of the reasons reach_test.go
# accepts; it also fails on an allowlist entry that matches nothing
# unreached. The gate builds twelve binaries, so it sits behind a build
# tag rather than in `go test ./...`. -v prints which unreached
# functions benchmark/ keeps alive.
reach:
	$(GO) test -tags hardsnapreach -run '^TestReach$$' -v .

# audit runs the packages that drive scan-FPGA targets with the
# hardsnapaudit build tag: every scan save or restore served as a state
# copy (a peripheral whose shift scanchain.ProveShift proved) is re-run
# as the netlist shift on a shadow simulator, and any difference in
# registers, memories, inputs, outputs or the saved state fails the
# operation. The same tag makes every solver query that brings its own
# cache key (a symbolic path's folded key) recompute the batch key, and
# every cache hit re-check that its shared model was not mutated; the
# solver and symexec packages run under it too. It also makes every
# peripheral state the snapshot store names by lookup re-hashed, and a
# name that differs from HWDigest panic; internal/snapshot runs under
# it with the core and target packages that drive the store. Default
# builds compile the checks out.
audit:
	$(GO) test -tags hardsnapaudit ./internal/target ./internal/core ./internal/bench ./internal/solver ./internal/symexec ./internal/snapshot

# The race gate covers every concurrency-sensitive package, including
# the v3 batching/pipelining layer (internal/remote: client send
# window, async flushes and server session live on different
# goroutines in every test that uses v3Pipe/TCP) and the parallel
# fuzzer (internal/fuzz: N workers over a coverage map under one lock
# and a shared corpus). cmd/hssim rides along because its
# fault-injection test is the one place a redialing client meets a
# server whose old connection is still draining; cmd/hardsnap because
# its -farm test runs a farm server, a stream and a cancel watchdog on
# separate goroutines; cmd/hsfarm because its server test shuts a
# listening farm down from another goroutine.
race:
	$(GO) test -race ./cmd/hssim ./cmd/hardsnap ./cmd/hsfarm ./internal/remote ./internal/target ./internal/core ./internal/snapshot ./internal/solver ./internal/expr ./internal/symexec ./internal/campaign ./internal/farm ./internal/dist ./internal/fuzz

# chaos runs the crash-safety identity matrix under the race detector:
# deterministic failure injection (panic/kill/sever), journal resume
# (process death, torn tails, mismatched configs) and mid-run remote
# link failover — for local workers and, through the same supervisor,
# for dist nodes (node death with and without a survivor, driver death
# + resume, the seed-drain journal, crash reports and the bug
# snapshots in them identical to a local run's) — the farm's restart-and-resume
# and standalone-identity gates (the farm server shuts down through the
# connection layer the dist node uses), the target's delta-restore
# equivalence, plus the one link that can fail, the wire: exactly-once
# retransmit and redial under FaultConn, and a wire that stays dead
# failing the run with a transient error. Every test asserts
# byte-identical results (bugs, paths AND virtual time) against an
# undisturbed run, or a pinned one, on fixed seeds so failures
# reproduce.
chaos:
	$(call chaos_run,./internal/core,Chaos|Resume|Journal)
	$(call chaos_run,./internal/dist,NodeDeath|JournalResume|SeedDrain|Chaos|CrashReports)
	$(call chaos_run,./internal/farm,RestartResume|Identity)
	$(call chaos_run,./internal/target,DeltaRestoreEquivalence)
	$(call chaos_run,./internal/remote,Failover|SeverLink|RecoverRetry|Retransmitted|UnderFaultyLink|ClientRetry|Redial|DeadWire)
	$(call chaos_run,./cmd/hssim,FaultInjection)
	$(GO) test -race ./internal/journal

# chaos_run runs package $(1)'s tests matching $(2) under the race
# detector. `go test -run` passes silently when nothing matches, so
# each |-separated alternative of $(2) must first name a test in $(1).
define chaos_run
	@for alt in $$(echo '$(2)' | tr '|' ' '); do \
		$(GO) test -list "$$alt" $(1) | grep -q '^Test' || \
			{ echo "chaos: -run '$$alt' matches no test in $(1)"; exit 1; }; \
	done
	$(GO) test -race $(1) -run '$(2)'
endef

# fuzz-smoke gives each native fuzz target ten seconds beyond its seed
# corpus (which `go test` already runs): the wire server's frame and
# body decoders, the client's session-body decoders, the snapshot
# record decoder (disk, journal and dist results), the snapshot store's
# naming of a state by lookup against hashing it, the journal's frame
# scanner and the campaign loader behind it (header and subtree
# results, every loaded path in a terminal status), the term builder's constant folding and rewrites against
# evaluating the op tree it was asked for, the solver against its
# reference, the SAT core's verdicts and models across queries on one
# instance against brute force, the solver cache's folded set key against its batch key,
# the vm's dirty-page restore against a full copy, the vm's
# decoded-table fetch against decoding the word in RAM, the symbolic
# executor's decoded-table fetch against the word built as terms, one
# instruction on the vm against the symbolic executor with concrete and
# with symbolic operands, the simulator's dirty-list restore against a
# full Restore, the compiled RTL engine and the symbolic one-clock
# evaluator (rtl.SymStep) against the interpreter on generated
# netlists, and the two readers of user files: the Verilog parser and
# the assembler.
fuzz-smoke:
	$(call fuzz_run,./internal/remote,FuzzServeConn)
	$(call fuzz_run,./internal/remote,FuzzClientBodies)
	$(call fuzz_run,./internal/snapshot,FuzzDecodeRecord)
	$(call fuzz_run,./internal/snapshot,FuzzNameByLookup)
	$(call fuzz_run,./internal/journal,FuzzScan)
	$(call fuzz_run,./internal/core,FuzzLoadCampaign)
	$(call fuzz_run,./internal/expr,FuzzBuilderMatchesEval)
	$(call fuzz_run,./internal/solver,FuzzDifferential)
	$(call fuzz_run,./internal/solver,FuzzIncrementalSAT)
	$(call fuzz_run,./internal/solver,FuzzSetKey)
	$(call fuzz_run,./internal/vm,FuzzDirtyRestore)
	$(call fuzz_run,./internal/vm,FuzzVMFetchMatchesDecode)
	$(call fuzz_run,./internal/symexec,FuzzFetchMatchesDecode)
	$(call fuzz_run,./internal/symexec,FuzzStepMatchesVM)
	$(call fuzz_run,./internal/sim,FuzzSimDirtyRestore)
	$(call fuzz_run,./internal/sim,FuzzCompiledMatchesInterp)
	$(call fuzz_run,./internal/rtl,FuzzSymStepMatchesInterp)
	$(call fuzz_run,./internal/verilog,FuzzParse)
	$(call fuzz_run,./internal/asm,FuzzAssemble)

# fuzz_run fuzzes target $(2) of package $(1) for ten seconds. `go test
# -fuzz` passes silently when the name matches no target, so the name
# must first list as a Fuzz function of $(1); the pattern is anchored
# so a later FuzzScanX cannot make FuzzScan ambiguous.
define fuzz_run
	@$(GO) test -list '^$(2)$$' $(1) | grep -x '$(2)' | grep -q '^Fuzz' || \
		{ echo "fuzz-smoke: no fuzz target $(2) in $(1)"; exit 1; }
	$(GO) test $(1) -run '^$$' -fuzz '^$(2)$$' -fuzztime 10s
endef

# examples runs every examples/* program; each checks its own outcome
# and exits non-zero on a miss. They run from a temp directory so that
# what they write (hwproperty.vcd) is not left in the tree.
examples:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for d in examples/*/; do \
		name="$$(basename "$$d")"; echo "examples/$$name"; \
		$(GO) build -o "$$tmp/$$name" "./$$d" && (cd "$$tmp" && "./$$name" >/dev/null) || exit 1; \
	done

# loc prints the repo's Go line counts, non-test and test separately,
# benchmark/ excluded (it measures the repo, it is not the repo). The
# roadmap counts net deletion as a success metric; this is the number.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l | xargs echo "non-test Go lines:"
	@find . -name '*_test.go' -not -path './benchmark/*' -print0 | xargs -0 cat | wc -l | xargs echo "test Go lines:    "

# bench runs the repository's performance benchmark (benchmark/README.md):
# every workload of BENCHMARK.json, end-to-end and per-layer metrics,
# report written where .gitignore already covers it. bench-compare
# applies each metric's bound to two such reports and fails on "worse":
#   make bench-compare A=before.json B=after.json
# The repo root keeps one report per PR that claims a gain, with an
# earlier one next to it (BENCH_<pr>.json), so the claim can be re-read:
#   make bench-compare A=BENCH_51.json B=BENCH_52.json
bench:
	$(GO) run ./benchmark -out .bench_build/run.json

bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# bench-smoke runs every Benchmark* exactly once so benchmarks cannot
# silently rot without anyone noticing.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-json emits the experiments' machine-readable metrics, for
# recording BENCH_*.json trajectories across revisions.
bench-json:
	$(GO) run ./cmd/hsbench -json
