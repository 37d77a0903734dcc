// Package bench implements the experiment harness that regenerates
// every table and figure of the paper's evaluation (Section V).
// Each experiment returns a Table that cmd/hsbench prints and the
// top-level benchmarks cross-check; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// All durations are deterministic *virtual* time from the calibrated
// cost model in internal/vtime — the reproduction's substitute for the
// authors' physical testbed (see DESIGN.md, substitution table).
package bench

import (
	"fmt"
	"strings"
)

// Table is one regenerated experiment artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics are the experiment's machine-readable results, emitted
	// by `hsbench -json` so metric trajectories can be recorded
	// across revisions.
	Metrics []Metric
	// Floors are the host-time speedups the experiment promises. They
	// ride on the table instead of failing Run because a wall-clock
	// ratio depends on machine load: cmd/hsbench (the bench-* make
	// targets) enforces them with CheckFloors, the test suite checks
	// only what Run gates itself — deterministic quantities.
	Floors []Floor
}

// Floor is one measured host-time ratio and the minimum it must reach.
type Floor struct {
	What     string
	Got, Min float64
}

// AddFloor records a host-time ratio for CheckFloors.
func (t *Table) AddFloor(what string, got, min float64) {
	t.Floors = append(t.Floors, Floor{What: what, Got: got, Min: min})
}

// CheckFloors reports the first floor the run missed.
func (t *Table) CheckFloors() error {
	for _, f := range t.Floors {
		if f.Got < f.Min {
			return fmt.Errorf("%s gate: %s %.1fx, want >= %.0fx", t.ID, f.What, f.Got, f.Min)
		}
	}
	return nil
}

// Metric is one machine-readable measurement of an experiment.
type Metric struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddMetric records one machine-readable measurement (the Experiment
// field is filled from the table ID).
func (t *Table) AddMetric(name string, value float64, unit string) {
	t.Metrics = append(t.Metrics, Metric{
		Experiment: t.ID, Metric: name, Value: value, Unit: unit,
	})
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment couples an ID with its generator.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "hardware snapshot save/restore duration per peripheral and method", E1},
		{"E2", "snapshot duration vs design size (scan chain vs readback)", E2},
		{"E3", "I/O forwarding latency and execution speed per target", E3},
		{"E4", "benefit of hardware snapshotting for firmware analysis", E4},
		{"E4b", "context-switch cost vs driver I/O volume", E4b},
		{"E5", "consistency of concurrent-path analysis (Fig. 1)", E5},
		{"E6", "scan-chain instrumentation overhead", E6},
		{"E7", "multi-target state transfer", E7},
		{"E8", "fuzzing throughput: snapshot reset vs reboot", E8},
		{"E9", "ablation: state-selection heuristic vs context switches", E9},
		{"E10", "fast-forwarding: native init vs fully symbolic", E10},
		{"E11", "parallel exploration scaling: workers vs paths/sec and cache hit rate", E11},
		{"E12", "remote-protocol latency: batched/pipelined v3 vs one-op-per-frame v2", E12},
		{"E13", "solver optimization stack: effort and throughput with the stack on vs off", E13},
		{"E14", "crash-safe exploration: journal overhead, chaos recovery, kill + resume", E14},
		{"E15", "exploration as a service: farm identity and warm-pool admission", E15},
		{"E16", "RTL engine: interpreter vs compiled bytecode with event-driven activation", E16},
		{"E17", "distributed exploration: N-node fan-out over the snapshot + solver fabric", E17},
		{"E18", "hybrid fuzzing: parallel-worker throughput, crash identity, time-to-bug", E18},
	}
}

// Lookup finds an experiment by (case-insensitive) ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
