package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hardsnap/internal/core"
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

	// Report is the full in-process report (not serialized).
	Report *core.Report `json:"-"`
}

// RunOptions are the run-level concerns layered onto a Job: where to
// journal, what to resume, which nodes to fan out to, and where to
// stream progress. None of them changes the Result's Fingerprint.
type RunOptions struct {
	// Fanout, when set, runs the job's fan-out subtrees somewhere other
	// than the local rigs (internal/dist builds one from node
	// addresses): the runner sets the job up and runs the seed phase,
	// hands the frontier to Fanout, and reports the merged report it
	// returns like any other. The runner closes the frontier after
	// Fanout returns.
	Fanout func(ctx context.Context, job Job, f *core.Frontier) (*core.Report, error)
	// Journal enables crash-safe campaign journaling to this path
	// (parallel jobs only, like the CLI flag).
	Journal string
	// Resume continues a journaled campaign; the journal keeps
	// growing at its own path.
	Resume *core.Campaign
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

// emit sends ev without ever blocking the run: an event the consumer
// is not ready for is dropped, and a nil channel takes nothing.
func emit(ch chan<- Event, ev Event) {
	if ch == nil {
		return
	}
	select {
	case ch <- ev:
	default:
	}
}

// progressHook adapts an event channel to core.Config.Progress (nil
// for a nil channel, keeping the engine hook-free).
func progressHook(events chan<- Event) func(core.ProgressEvent) {
	if events == nil {
		return nil
	}
	return func(p core.ProgressEvent) {
		emit(events, Event{
			Kind:         EventProgress,
			Instructions: p.Instructions,
			SubtreesDone: p.SubtreesDone,
			Subtrees:     p.Subtrees,
		})
	}
}

// newResult turns a finished run's report into its Result — bug
// events, crash reports under reportDir (when set) and the completed
// event included.
func newResult(job Job, analysis *core.Analysis, rep *core.Report, events chan<- Event, reportDir string) (*Result, error) {
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
		emit(events, Event{Kind: EventBug, Bug: &bug})
	}
	if reportDir != "" && len(res.Bugs) > 0 {
		n, err := analysis.WriteCrashReports(reportDir, rep)
		if err != nil {
			return nil, err
		}
		res.CrashReports = n
	}
	emit(events, Event{
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
	setup.Engine.JournalPath = opts.Journal
	setup.Engine.Resume = opts.Resume
	setup.Engine.Progress = progressHook(opts.Events)

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
	emit(opts.Events, Event{Kind: EventStarted, Target: kind, SoC: soc})

	var rep *core.Report
	if opts.Fanout == nil {
		rep, err = analysis.Engine.RunContext(ctx)
	} else {
		var f *core.Frontier
		if f, err = analysis.Engine.Frontier(ctx); err == nil {
			defer f.Close()
			rep, err = opts.Fanout(ctx, job, f)
		}
	}
	if errors.Is(err, core.ErrInterrupted) {
		emit(opts.Events, Event{Kind: EventInterrupted})
		return nil, err
	}
	if err != nil {
		return nil, err
	}

	return newResult(job, analysis, rep, opts.Events, opts.ReportDir)
}
