package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hardsnap/internal/core"
	"hardsnap/internal/target"
)

// EventKind labels a progress event.
type EventKind string

const (
	// EventStarted fires once the analysis is set up, before
	// exploration begins.
	EventStarted EventKind = "started"
	// EventProgress fires periodically during exploration (serial
	// instruction samples and parallel subtree completions).
	EventProgress EventKind = "progress"
	// EventBug fires once per discovered bug, after the run ends.
	EventBug EventKind = "bug"
	// EventInterrupted fires when the run was cancelled with its
	// journal flushed (the job can be resumed).
	EventInterrupted EventKind = "interrupted"
	// EventCompleted fires when the run finished; the Result carries
	// the same numbers authoritatively.
	EventCompleted EventKind = "completed"
)

// Event is one typed progress notification. Progress events are
// lossy by design — they are dropped rather than ever blocking the
// run — so consumers must treat the returned Result, not the event
// stream, as the authoritative outcome.
type Event struct {
	Kind EventKind `json:"kind"`
	// Target kind (started events).
	Target string `json:"target,omitempty"`
	// SoC describes the peripheral bus layout, one line per region
	// (started events).
	SoC []string `json:"soc,omitempty"`
	// Serial-phase instruction count (progress events).
	Instructions uint64 `json:"instructions,omitempty"`
	// Parallel fan-out progress (progress events).
	SubtreesDone int `json:"subtrees_done,omitempty"`
	Subtrees     int `json:"subtrees,omitempty"`
	// Bug detail (bug events).
	Bug *Bug `json:"bug,omitempty"`
	// Completion summary (completed events).
	Paths       int           `json:"paths,omitempty"`
	Bugs        int           `json:"bugs,omitempty"`
	VirtualTime time.Duration `json:"virtual_time,omitempty"`
	Fingerprint string        `json:"fingerprint,omitempty"`
}

// Bug is the wire form of one bug-terminated path.
type Bug struct {
	Status string            `json:"status"`
	PC     uint32            `json:"pc"`
	Steps  uint64            `json:"steps"`
	Model  map[string]uint64 `json:"model,omitempty"`
}

// Result is the serializable outcome of a run.
type Result struct {
	// Fingerprint is the result identity: core.Fingerprint over the
	// finished paths and virtual time. Two runs of the same Job must
	// produce equal Fingerprints regardless of where they executed.
	Fingerprint string `json:"fingerprint"`
	// JobFingerprint ties the result back to its job spec.
	JobFingerprint string `json:"job_fingerprint"`
	Paths          int    `json:"paths"`
	Bugs           []Bug  `json:"bugs,omitempty"`
	Instructions   uint64 `json:"instructions"`
	SolverQueries  int64  `json:"solver_queries"`
	// VirtualTime is the modeled testbed time (parallel runs report
	// the N-worker makespan).
	VirtualTime     time.Duration `json:"virtual_time"`
	SeedVirtualTime time.Duration `json:"seed_virtual_time,omitempty"`
	Workers         int           `json:"workers,omitempty"`
	// CrashReports is the number of per-bug reports written to
	// RunOptions.ReportDir.
	CrashReports int `json:"crash_reports,omitempty"`
	// ExploreWall is the wall-clock time of the distributed
	// exploration phase — node connection through last subtree
	// result, excluding the driver's local setup, seed phase, and
	// merge (zero for non-distributed runs). The throughput
	// denominator for node-scaling comparisons.
	ExploreWall time.Duration `json:"explore_wall,omitempty"`

	// Report is the full in-process report (not serialized).
	Report *core.Report `json:"-"`
}

// RunOptions are the run-level concerns layered onto a Job: where to
// journal, what to resume, which pre-built target to run on, and
// where to stream progress.
type RunOptions struct {
	// Journal enables crash-safe campaign journaling to this path
	// (parallel jobs only, like the CLI flag).
	Journal string
	// Resume continues a journaled campaign; the journal keeps
	// growing at its own path.
	Resume *core.Campaign
	// Target, when set, is a pre-built execution vehicle (a pooled
	// target or a remote client); the job's FPGA/Readback knobs are
	// ignored in favor of whatever the vehicle is.
	Target target.Interface
	// Events receives typed progress events. Sends never block: an
	// event the consumer is not ready for is dropped. The channel is
	// not closed by the runner.
	Events chan<- Event
	// ReportDir, when set, receives per-bug crash reports (test
	// vector, model, hardware snapshot).
	ReportDir string
}

// Runner executes Jobs. The zero value is ready to use; a Runner is
// stateless and safe for concurrent use.
type Runner struct{}

// Emit sends ev without ever blocking the run: an event the consumer
// is not ready for is dropped, and a nil channel takes nothing.
func Emit(ch chan<- Event, ev Event) {
	if ch == nil {
		return
	}
	select {
	case ch <- ev:
	default:
	}
}

// ProgressHook adapts an event channel to core.Config.Progress (nil
// for a nil channel, keeping the engine hook-free).
func ProgressHook(events chan<- Event) func(core.ProgressEvent) {
	if events == nil {
		return nil
	}
	return func(p core.ProgressEvent) {
		Emit(events, Event{
			Kind:         EventProgress,
			Instructions: p.Instructions,
			SubtreesDone: p.SubtreesDone,
			Subtrees:     p.Subtrees,
		})
	}
}

// NewResult turns a finished run's report into its Result — bug
// events, crash reports under reportDir (when set) and the completed
// event included. Every way of running a job (Runner.Run, the
// distributed driver) ends here, so where a job ran cannot change what
// is reported about it.
func NewResult(job Job, analysis *core.Analysis, rep *core.Report, events chan<- Event, reportDir string) (*Result, error) {
	res := &Result{
		Fingerprint:     core.Fingerprint(rep),
		JobFingerprint:  job.Fingerprint(),
		Paths:           len(rep.Finished),
		Instructions:    rep.Stats.Instructions,
		SolverQueries:   rep.Solver.Queries,
		VirtualTime:     rep.VirtualTime,
		SeedVirtualTime: rep.SeedVirtualTime,
		Workers:         len(rep.Workers),
		Report:          rep,
	}
	for _, st := range rep.Bugs() {
		bug := Bug{
			Status: fmt.Sprintf("%v", st.Status),
			PC:     st.PC,
			Steps:  st.Steps,
			Model:  st.Model,
		}
		res.Bugs = append(res.Bugs, bug)
		Emit(events, Event{Kind: EventBug, Bug: &bug})
	}
	if reportDir != "" && len(res.Bugs) > 0 {
		n, err := analysis.WriteCrashReports(reportDir, rep)
		if err != nil {
			return nil, err
		}
		res.CrashReports = n
	}
	Emit(events, Event{
		Kind:        EventCompleted,
		Paths:       res.Paths,
		Bugs:        len(res.Bugs),
		VirtualTime: res.VirtualTime,
		Fingerprint: res.Fingerprint,
	})
	return res, nil
}

// Run executes the job to completion (or interruption). On
// interruption it returns core.ErrInterrupted with the journal — if
// any — flushed for resume. The returned Result is the authoritative
// outcome; the event stream is best-effort.
func (Runner) Run(ctx context.Context, job Job, opts RunOptions) (*Result, error) {
	setup, err := job.SetupConfig()
	if err != nil {
		return nil, err
	}
	setup.Target = opts.Target
	setup.Engine.JournalPath = opts.Journal
	setup.Engine.Resume = opts.Resume
	setup.Engine.Progress = ProgressHook(opts.Events)

	analysis, err := core.Setup(setup)
	if err != nil {
		return nil, err
	}
	kind := "none"
	var soc []string
	if rig := analysis.Rig; rig.Target != nil {
		kind = rig.Target.Kind()
		for _, r := range rig.Router.Regions() {
			soc = append(soc, fmt.Sprintf("%-10s @ %#x (irq %d)", r.Name, r.Base, r.IRQ))
		}
	}
	Emit(opts.Events, Event{Kind: EventStarted, Target: kind, SoC: soc})

	rep, err := analysis.Engine.RunContext(ctx)
	if errors.Is(err, core.ErrInterrupted) {
		Emit(opts.Events, Event{Kind: EventInterrupted})
		return nil, err
	}
	if err != nil {
		return nil, err
	}

	return NewResult(job, analysis, rep, opts.Events, opts.ReportDir)
}
