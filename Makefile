GO ?= go

.PHONY: check fmt vet build test reach race chaos fuzz-smoke examples loc bench bench-compare bench-smoke bench-json

# Full gate: formatting, static checks, build, tests, every non-test
# function reached by a shipped binary, race detector on the
# concurrency-sensitive packages, chaos/recovery identity matrix, ten
# seconds of native fuzzing per decoder-facing target, every example
# program run to completion.
check: fmt vet build test reach race chaos fuzz-smoke examples

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

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

# The race gate covers every concurrency-sensitive package, including
# the v3 batching/pipelining layer (internal/remote: client send
# window, async flushes and server session live on different
# goroutines in every test that uses v3Pipe/TCP) and the parallel
# fuzzer (internal/fuzz: N workers over a lock-striped coverage map
# and a shared corpus). cmd/hssim rides along because its
# fault-injection test is the one place a redialing client meets a
# server whose old connection is still draining.
race:
	$(GO) test -race ./cmd/hssim ./internal/remote ./internal/target ./internal/core ./internal/snapshot ./internal/solver ./internal/expr ./internal/symexec ./internal/campaign ./internal/farm ./internal/dist ./internal/fuzz

# chaos runs the crash-safety identity matrix under the race detector:
# deterministic failure injection (panic/kill/hang/sever), journal
# resume (process death, torn tails, mismatched configs) and mid-run
# remote link failover — for local workers and, through the same
# supervisor, for dist nodes (node death with and without a survivor,
# driver death + resume, the seed-drain journal) — the farm's
# restart-and-resume and standalone-identity gates (the farm server
# shuts down through the connection layer the dist node uses), plus
# both link fault layers: the in-process link's seeded faults, retry,
# health check and dead-link fatal error, and the wire's exactly-once
# retransmit and redial under FaultConn. Every test asserts
# byte-identical results (bugs, paths AND virtual time) against an
# undisturbed run, or a pinned one, on fixed seeds so failures
# reproduce.
chaos:
	$(call chaos_run,./internal/core,Chaos|Resume|Journal|Faulty|DeadLink)
	$(call chaos_run,./internal/dist,NodeDeath|JournalResume|SeedDrain|Chaos)
	$(call chaos_run,./internal/farm,RestartResume|Identity)
	$(call chaos_run,./internal/target,Fault|PersistentLink|DeltaRestoreEquivalence)
	$(call chaos_run,./internal/remote,Failover|SeverLink|RecoverRetry|Retransmitted|UnderFaultyLink|ClientRetry|Redial)
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
# snapshot-body decoders, the snapshot record decoder (disk, journal
# and dist delta frames), the journal's frame scanner and the campaign
# loader behind it (gob payloads), the solver against its reference,
# the vm's dirty-page restore against a full copy, the simulator's
# dirty-list restore against a full Restore, the compiled RTL engine
# against the interpreter on generated netlists, and the two readers
# of user files: the Verilog parser and the assembler.
fuzz-smoke:
	$(call fuzz_run,./internal/remote,FuzzServeConn)
	$(call fuzz_run,./internal/snapshot,FuzzDecodeRecord)
	$(call fuzz_run,./internal/journal,FuzzScan)
	$(call fuzz_run,./internal/core,FuzzLoadCampaign)
	$(call fuzz_run,./internal/solver,FuzzDifferential)
	$(call fuzz_run,./internal/vm,FuzzDirtyRestore)
	$(call fuzz_run,./internal/sim,FuzzSimDirtyRestore)
	$(call fuzz_run,./internal/sim,FuzzCompiledMatchesInterp)
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
# The repo root keeps one report per PR that claims a gain, with its
# parent's next to it (BENCH_<pr>.json), so the claim can be re-read:
#   make bench-compare A=BENCH_32.json B=BENCH_33.json
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
