package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// metricDef names one metric. Bound is the share of the baseline
// median by which an end-to-end metric may get worse before -compare
// (and the driver reading BENCHMARK.json) calls it a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEndMetrics are the host-side metrics BENCHMARK.json declares
// and contract mode prints with --trace 0. "work" is the workload's
// unit: execs, finished paths or blocks. smoke_test.go keeps this
// table and BENCHMARK.json identical.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_work_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_work", "us", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.10},
}

// exactMetrics are deterministic, so two commits compare exactly and
// the bound is zero. Full mode reports them beside the host metrics
// and -compare checks them; the driver's contract cannot hold them (a
// metric there may be neither 0 nor identical on every run), so
// contract mode reports virtual time as per-layer virt.* and failures
// as failed/attempted, and golden.json pins virtual time exactly.
var exactMetrics = []metricDef{
	{"virt_work_per_s", "1/vs", "higher", 0},
	{"fail_share", "ratio", "lower", 0},
}

// mustBeZero are the counters that fail a rep when they move: a
// solver give-up, wire-level recovery or a worker restart means the
// rep did different work, and an AES mismatch means the simulator is
// wrong.
var mustBeZero = []string{
	"solver.unknowns", "remote.retransmits", "remote.reconnects",
	"core.worker_restarts", "sim.aes_mismatch",
}

// layerMetrics are the per-layer metrics, <module>.<metric>, printed
// with --trace 1 for every workload (0 where a layer takes no part).
// Sources: span = harness span of the traced rep, ctr = counter from
// a public result struct, probe = timed direct calls with the
// workload's own inputs.
var layerMetrics = []metricDef{
	{"harness.trace_overhead", "ratio", "lower", 0},   // median traced wall / median untraced wall - 1
	{"harness.rep_spread", "ratio", "lower", 0},       // (max-min)/median of untraced walls
	{"harness.alloc_kb_per_work", "KB", "lower", 0},   // runtime.MemStats delta
	{"harness.mallocs_per_work", "count", "lower", 0}, // runtime.MemStats delta
	{"harness.gc_cpu_share", "ratio", "lower", 0},     // MemStats.GCCPUFraction
	{"virt.work_per_s", "1/vs", "higher", 0},          // ctr: work / virtual time, the paper's clock
	{"virt.time_s", "vs", "lower", 0},                 // ctr: virtual time of the run
	{"asm.assemble_ms", "ms", "lower", 0},             // span
	{"periph.build_ms", "ms", "lower", 0},             // probe: parse + scan-chain instrument + elaborate
	{"sim.compile_ms", "ms", "lower", 0},              // probe: sim.New
	{"target.build_ms", "ms", "lower", 0},             // span
	{"remote.connect_ms", "ms", "lower", 0},           // span: listen + dial + hello
	{"vm.restore_ns", "ns", "lower", 0},               // probe: CPU.RestoreSnapshot
	{"vm.run_ns_per_instr", "ns", "lower", 0},         // probe
	{"vm.instr_per_exec", "count", "lower", 0},        // probe
	{"vm.restore_share", "ratio", "lower", 0},         // restore_ns x execs / wall
	{"vm.run_share", "ratio", "lower", 0},             // run ns x execs / wall
	{"bus.route_ns", "ns", "lower", 0},                // probe: Router over a stub port
	{"bus.mmio_ops", "count", "lower", 0},             // ctr
	{"sim.cycles", "count", "lower", 0},               // ctr
	{"sim.cycle_ns", "ns", "lower", 0},                // probe: transcript replay on a bare simulator
	{"sim.comb_runs_per_cycle", "count", "lower", 0},  // EngineStats of the replay
	{"sim.seq_runs_per_cycle", "count", "lower", 0},   // EngineStats of the replay
	{"sim.snapshot_ns", "ns", "lower", 0},             // probe
	{"sim.restore_ns", "ns", "lower", 0},              // probe
	{"sim.restore_dirty_ns", "ns", "lower", 0},        // probe
	{"sim.aes_mismatch", "count", "lower", 0},         // ciphertexts differing from crypto/aes
	{"target.io_ops", "count", "lower", 0},            // span count
	{"target.io_ns", "ns", "lower", 0},                // span mean
	{"target.advance_share", "ratio", "lower", 0},     // span total / capacity
	{"target.saves", "count", "lower", 0},             // ctr
	{"target.save_ns", "ns", "lower", 0},              // span mean
	{"target.restores", "count", "lower", 0},          // ctr
	{"target.restore_ns", "ns", "lower", 0},           // span mean, full and delta
	{"target.delta_ratio", "ratio", "higher", 0},      // ctr
	{"target.snap_bytes", "B", "lower", 0},            // ctr
	{"target.share", "ratio", "lower", 0},             // all target spans / capacity
	{"snapshot.puts", "count", "lower", 0},            // ctr
	{"snapshot.gets", "count", "lower", 0},            // ctr
	{"snapshot.dedup_ratio", "ratio", "higher", 0},    // ctr
	{"snapshot.bytes_stored", "B", "lower", 0},        // ctr
	{"snapshot.share_ratio", "ratio", "higher", 0},    // ctr
	{"snapshot.put_ns", "ns", "lower", 0},             // probe: miss path, distinct records
	{"snapshot.get_ns", "ns", "lower", 0},             // probe
	{"snapshot.encode_ns", "ns", "lower", 0},          // probe
	{"snapshot.decode_ns", "ns", "lower", 0},          // probe
	{"core.context_switches", "count", "lower", 0},    // ctr
	{"core.save_skip_ratio", "ratio", "higher", 0},    // ctr
	{"core.restore_skip_ratio", "ratio", "higher", 0}, // ctr
	{"core.seed_virt_share", "ratio", "lower", 0},     // ctr
	{"core.worker_restarts", "count", "lower", 0},     // ctr
	{"core.self_share", "ratio", "lower", 0},          // capacity - target spans - solver - journal
	{"core.par_cpu_ratio", "ratio", "higher", 0},      // cpu / wall of the timed call
	{"symexec.instructions", "count", "lower", 0},     // ctr
	{"symexec.forks", "count", "lower", 0},            // ctr
	{"symexec.concretized", "count", "lower", 0},      // ctr
	{"symexec.step_ns", "ns", "lower", 0},             // probe: Executor.Step along the first path
	{"solver.queries", "count", "lower", 0},           // ctr
	{"solver.wall_share", "ratio", "lower", 0},        // Solver.WallNS / capacity
	{"solver.query_us", "us", "lower", 0},             // ctr
	{"solver.cache_hit_ratio", "ratio", "higher", 0},  // ctr
	{"solver.model_hit_ratio", "ratio", "higher", 0},  // ctr
	{"solver.conflicts_props", "count", "lower", 0},   // ctr
	{"solver.unknowns", "count", "lower", 0},          // ctr
	{"remote.frames", "count", "lower", 0},            // ctr
	{"remote.ops_per_frame", "count", "higher", 0},    // ctr
	{"remote.state_bytes", "B", "lower", 0},           // ctr
	{"remote.chunks_skipped", "count", "higher", 0},   // ctr
	{"remote.retransmits", "count", "lower", 0},       // ctr
	{"remote.reconnects", "count", "lower", 0},        // ctr
	{"remote.rtt_us", "us", "lower", 0},               // probe: one register read over the wire
	{"remote.wire_share", "ratio", "lower", 0},        // target spans minus the local twin's / wall
	{"journal.records", "count", "lower", 0},          // ctr
	{"journal.bytes", "B", "lower", 0},                // ctr
	{"journal.wall_share", "ratio", "lower", 0},       // Recovery.JournalWall / capacity
	{"journal.append_sync_us", "us", "lower", 0},      // probe: Append + Sync at the mean record size
	{"fuzz.edges", "count", "higher", 0},              // ctr
	{"fuzz.corpus", "count", "lower", 0},              // ctr
	{"fuzz.crash_buckets", "count", "higher", 0},      // ctr
	{"fuzz.hw_restores", "count", "lower", 0},         // ctr
	{"fuzz.delta_ratio", "ratio", "higher", 0},        // ctr
	{"fuzz.reset_virt_share", "ratio", "lower", 0},    // ctr
}

// spanMetrics turns the traced rep's spans into per-layer metrics.
// Shares are taken of the run's capacity (wall x workers): with two
// workers the span totals are sums over both.
func spanMetrics(tr *tracer, o *outcome, wallNS int64) {
	m := o.layer
	m["asm.assemble_ms"] = tr.harnessMS(kAssemble)
	m["target.build_ms"] = tr.harnessMS(kTargetBuild)
	m["remote.connect_ms"] = tr.harnessMS(kConnect)

	capacity := o.capacityNS(wallNS)
	m["solver.wall_share"] = float64(o.solverNS) / capacity
	m["journal.wall_share"] = float64(o.journalNS) / capacity

	tt := tr.targetTotals()
	if tt.allNS() == 0 {
		return // nothing decorated (the fuzz workloads build their own target)
	}
	restores := tt.count[kRestore] + tt.count[kRestoreDelta]
	m["target.io_ops"] = float64(tt.count[kIO])
	m["bus.mmio_ops"] = float64(tt.count[kIO])
	m["target.io_ns"] = ratio(float64(tt.ns[kIO]), float64(tt.count[kIO]))
	m["target.advance_share"] = float64(tt.ns[kAdvance]) / capacity
	m["target.save_ns"] = ratio(float64(tt.ns[kSave]), float64(tt.count[kSave]))
	m["target.restore_ns"] = ratio(float64(tt.ns[kRestore]+tt.ns[kRestoreDelta]), float64(restores))
	m["target.share"] = float64(tt.allNS()) / capacity
	m["core.self_share"] = (capacity - float64(tt.allNS()) - float64(o.solverNS) - float64(o.journalNS)) / capacity
}

// printReport writes the full-mode tables.
func printReport(w io.Writer, rep *report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "end to end (seed %d, %d reps; median [min..max])\t\n", rep.Seed, rep.Reps)
	fmt.Fprint(tw, "workload\tunit\t")
	all := append(append([]metricDef(nil), endToEndMetrics...), exactMetrics...)
	for _, m := range all {
		fmt.Fprintf(tw, "%s (%s)\t", m.Name, m.Unit)
	}
	fmt.Fprintln(tw)
	for _, s := range rep.Workloads {
		fmt.Fprintf(tw, "%s\t%s\t", s.Workload, s.Unit)
		for _, m := range all {
			st := s.EndToEnd[m.Name]
			if m.Bound == 0 {
				fmt.Fprintf(tw, "%.6g\t", st.Median)
			} else {
				fmt.Fprintf(tw, "%.4g [%.4g..%.4g]\t", st.Median, st.Min, st.Max)
			}
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintln(tw)
	tw.Flush()

	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "per layer (median of traced reps)\tunit\t")
	for _, s := range rep.Workloads {
		fmt.Fprintf(tw, "%s\t", s.Workload)
	}
	fmt.Fprintln(tw)
	for _, m := range layerMetrics {
		fmt.Fprintf(tw, "%s\t%s\t", m.Name, m.Unit)
		for _, s := range rep.Workloads {
			fmt.Fprintf(tw, "%.4g\t", s.Layer[m.Name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	for _, s := range rep.Workloads {
		sort.Strings(s.Failures)
		for _, f := range s.Failures {
			fmt.Fprintf(w, "FAILED %s %s\n", s.Workload, f)
		}
	}
}
