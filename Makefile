GO ?= go

.PHONY: check fmt vet build test race chaos fuzz-smoke examples loc bench bench-compare bench-smoke bench-json bench-scale bench-remote bench-solver bench-sim bench-dist bench-fuzz

# Full gate: formatting, static checks, build, tests, race detector on
# the concurrency-sensitive packages, chaos/recovery identity matrix,
# ten seconds of native fuzzing per decoder-facing target, every
# example program run to completion.
check: fmt vet build test race chaos fuzz-smoke examples

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
# driver death + resume, the seed-drain journal). Every test asserts
# byte-identical results (bugs, paths AND virtual time) against an
# undisturbed run, on fixed chaos seeds so failures reproduce.
chaos:
	$(GO) test -race ./internal/core -run 'Chaos|Resume|Journal'
	$(GO) test -race ./internal/dist -run 'NodeDeath|JournalResume|SeedDrain|Chaos'
	$(GO) test -race ./internal/remote -run 'Failover|SeverLink|RecoverRetry'
	$(GO) test -race ./internal/journal

# fuzz-smoke gives each native fuzz target ten seconds beyond its seed
# corpus (which `go test` already runs): the wire server's frame and
# snapshot-body decoders, the snapshot record decoder (disk, journal
# and dist delta frames), the journal's frame scanner and the campaign
# loader behind it (gob payloads), the solver against its reference,
# and the vm's dirty-page restore against a full copy.
fuzz-smoke:
	$(GO) test ./internal/remote -run '^$$' -fuzz FuzzServeConn -fuzztime 10s
	$(GO) test ./internal/snapshot -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 10s
	$(GO) test ./internal/journal -run '^$$' -fuzz FuzzScan -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLoadCampaign -fuzztime 10s
	$(GO) test ./internal/solver -run '^$$' -fuzz FuzzDifferential -fuzztime 10s
	$(GO) test ./internal/vm -run '^$$' -fuzz FuzzDirtyRestore -fuzztime 10s

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
#   make bench-compare A=BENCH_18.json B=BENCH_19.json
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

# bench-scale exercises the parallel exploration engine under the race
# detector at 1 and 4 workers (E11 checks that both worker counts find
# identical path counts and bug sets).
bench-scale:
	$(GO) run -race ./cmd/hsbench -workers 1 e11
	$(GO) run -race ./cmd/hsbench -workers 4 e11

# bench-remote runs the remote-protocol latency experiment (E12) on a
# zero-latency loopback and with 500µs one-way injected latency. The
# experiment gates itself, on deterministic quantities only: paths and
# bugs equal to the local leg, v3 virtual time equal to local, v3
# within its recorded frame and state-byte budgets, and >=5x fewer
# frames than the recorded row of the deleted one-op-per-frame v2
# protocol. No wall-clock gate, so it is safe in CI.
bench-remote:
	$(GO) run ./cmd/hsbench -latency 0 e12
	$(GO) run ./cmd/hsbench -latency 500us e12

# bench-sim runs the RTL-engine study (E16). The experiment gates
# itself on cycle-exact differential identity and an unchanged
# exploration fingerprint; its host-time floors (>=5x
# compiled-vs-interpreter on busy logic, >=20x on a quiescent SoC,
# where event-driven activation skips idle logic) ride on the table and
# hsbench enforces them — so this target fails on any engine semantics
# or performance regression, while `go test ./...` gates on the
# deterministic half only. E15's and E17's wall-clock floors work the
# same way.
bench-sim:
	$(GO) run ./cmd/hsbench e16

# bench-dist runs the distributed-exploration study (E17) over
# loopback TCP with 500µs one-way injected latency per side. The
# experiment gates itself: every leg's fingerprint byte-identical to
# the standalone runner and >=5x fewer snapshot bytes on the wire over
# the digest fabric than the same run's bug records would have cost
# inline (the driver totals both sides from one cold 3-node leg);
# hsbench enforces the table's floor of >=2x paths/sec with 3 warm
# nodes vs 1.
bench-dist:
	$(GO) run ./cmd/hsbench e17

# bench-fuzz runs the hybrid-fuzzing study (E18). The experiment
# gates itself: >=10x execs per virtual second with parallel workers
# vs the frozen map-based reference fuzzer, identical deduplicated
# crash buckets in single-worker fixed-seed mode, and the hybrid
# concolic loop beating both fuzz-only and symexec-only to a
# magic-guarded bug — so this target fails on any fuzzer throughput
# or fidelity regression.
bench-fuzz:
	$(GO) run ./cmd/hsbench e18

# bench-solver A/B-tests the solver optimization stack (E13): the
# experiment itself gates on identical paths/bugs/virtual times with
# the stack on vs off and on a >=2x SAT-effort reduction on the
# exploration workloads.
bench-solver:
	$(GO) run ./cmd/hsbench -json e13
