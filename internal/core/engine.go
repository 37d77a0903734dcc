// Package core is HardSnap's co-testing engine: it couples the
// selective symbolic virtual machine (internal/symexec) with hardware
// execution targets (internal/target) through the snapshotting
// controller, implementing the paper's Algorithm 1. Every software
// state owns a private hardware snapshot; whenever the state selection
// heuristic switches states, the engine saves the live hardware state
// into the previous state's snapshot and restores the next state's —
// the hardware context switch that makes concurrent multi-path
// analysis consistent.
//
// Three baseline modes reproduce the approaches of Fig. 1 and the
// related work:
//
//   - ModeNaiveReboot  (naive-and-consistent): every switch to a
//     different path is charged a full platform reboot plus
//     re-execution of the path prefix;
//   - ModeNaiveShared  (naive-and-inconsistent): all paths share the
//     live hardware with no context switching, reproducing the
//     corruption hardware-in-the-loop DSE suffers from;
//   - ModeRecordReplay: hardware state is rebuilt by resetting the
//     platform and re-issuing the path's recorded I/O interactions —
//     the alternative the paper rejects as slow (cost scales with the
//     interaction count) and error-prone (replay divergence).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/solver"
	"hardsnap/internal/symexec"
	"hardsnap/internal/vm"
	"hardsnap/internal/vtime"
)

// Mode selects the hardware consistency strategy.
type Mode int

// Engine modes.
const (
	// ModeHardSnap context-switches hardware snapshots (the paper's
	// contribution).
	ModeHardSnap Mode = iota + 1
	// ModeNaiveReboot reboots and re-executes on every path switch.
	ModeNaiveReboot
	// ModeNaiveShared shares live hardware across paths without any
	// switching (inconsistent).
	ModeNaiveShared
	// ModeRecordReplay resets the hardware on every switch and
	// replays the path's recorded I/O interactions to rebuild its
	// hardware state (the related-work alternative the paper rejects
	// as slow and error-prone).
	ModeRecordReplay
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeHardSnap:
		return "hardsnap"
	case ModeNaiveReboot:
		return "naive-reboot"
	case ModeNaiveShared:
		return "naive-shared"
	case ModeRecordReplay:
		return "record-replay"
	}
	return "?"
}

// Config parameterizes an analysis run.
type Config struct {
	Mode Mode
	// Searcher picks the next state (default DFS).
	Searcher symexec.Searcher
	// MaxInstructions bounds the total retired instructions (0 =
	// 10M).
	MaxInstructions uint64
	// KeepBugSnapshots retains the hardware snapshot of every state
	// that terminated in a bug (abort / assertion failure), for crash
	// reports and offline root-cause analysis.
	KeepBugSnapshots bool
	// Workers sets the exploration worker count. 1 (or 0) runs the
	// classic serial loop; > 1 fans subtrees out to that many workers,
	// each owning a spawned target clone and snapshot manager over the
	// shared store (see parallel.go for the determinism contract).
	// Use AutoWorkers() for a GOMAXPROCS-sized pool.
	Workers int
	// SeedFanout overrides the fan-out width of a parallel run's seed
	// phase (0 = Workers x 4). More subtrees than workers lets work
	// stealing balance uneven subtree sizes; a distributed driver may
	// want a wider fan-out still, so slow links stay saturated. Part
	// of the run's identity: a different decomposition packs the
	// deterministic merge schedule differently.
	SeedFanout int

	// MaxVirtualTime bounds the virtual time a run may consume (0 =
	// unlimited): the run stops at the next scheduling boundary once
	// the clock passes the budget, finishing leftover states as
	// StatusBudget. The campaign farm uses this to enforce per-tenant
	// virtual-time quotas. Like MaxInstructions, a parallel run gives
	// each subtree the remaining budget independently.
	MaxVirtualTime time.Duration
	// MaxSolverQueries bounds the total solver queries issued (0 =
	// unlimited), checked at scheduling boundaries; the farm's
	// per-tenant solver quotas ride on it. A fork costs one query (the
	// state's witness decides the other side), so a budget admits about
	// one fork per query, twice what asking about both sides would. The
	// parallel caveat of MaxVirtualTime applies.
	MaxSolverQueries uint64

	// JournalPath, when set on a parallel run (Workers > 1), records
	// campaign progress to an append-only crash-safe journal so a
	// killed run can be continued with Resume. See campaign.go.
	JournalPath string
	// Resume continues a journaled campaign (LoadCampaign): the seed
	// phase is re-run and validated against the journal header, then
	// completed subtrees are replayed from the journal instead of
	// re-explored. Implies the journaled worker count.
	Resume *Campaign
	// Chaos injects deterministic failures into a parallel run
	// (tests); nil injects nothing.
	Chaos *ChaosSchedule
	// HeartbeatInterval enables worker death detection on parallel
	// runs: a monitor samples per-worker progress every interval and
	// deposes workers that stall for heartbeatTimeoutFactor intervals.
	// Zero disables the monitor (panics and returned errors are still
	// supervised).
	HeartbeatInterval time.Duration
	// MaxWorkerRestarts bounds replacement-worker spawns per campaign
	// (default 2×Workers).
	MaxWorkerRestarts int

	// Progress, when set, receives observation-only progress
	// callbacks: periodically during serial exploration and after
	// every completed subtree of a parallel run. The callback must be
	// fast and must not call back into the engine; it may run on
	// worker goroutines. It never influences results — streaming
	// consumers (the campaign runner) drop events they cannot keep up
	// with.
	Progress func(ProgressEvent)
}

// ProgressEvent is one observation-only progress sample.
type ProgressEvent struct {
	// Instructions retired so far (serial phase samples only).
	Instructions uint64
	// SubtreesDone / Subtrees report parallel fan-out progress
	// (zero for serial samples).
	SubtreesDone int
	Subtrees     int
}

// Fixed engine policy.
const (
	// MaxStates bounds the active state set; further forks are killed
	// with StatusBudget.
	MaxStates = 4096
	// maxSubtreeRetries bounds recovery attempts per subtree before
	// the campaign fails.
	maxSubtreeRetries = 3
	// heartbeatTimeoutFactor is how many HeartbeatIntervals a worker
	// may stall before the monitor deposes it.
	heartbeatTimeoutFactor = 20
)

// AutoWorkers returns the worker count a "use all CPUs" configuration
// should ask for (GOMAXPROCS).
func AutoWorkers() int { return runtime.GOMAXPROCS(0) }

func (c *Config) setDefaults() {
	if c.Mode == 0 {
		c.Mode = ModeHardSnap
	}
	if c.Searcher == nil {
		c.Searcher = symexec.DFS{}
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 10_000_000
	}
	if c.Resume != nil && c.Resume.Header.Workers > 1 {
		// Resuming adopts the journaled worker count: the merge
		// schedule (and so the reported virtual time) depends on it.
		c.Workers = c.Resume.Header.Workers
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxWorkerRestarts == 0 {
		c.MaxWorkerRestarts = 2 * c.Workers
	}
	if c.Chaos != nil && c.Chaos.HangRate > 0 && c.HeartbeatInterval == 0 {
		// Hung workers are only detectable via heartbeats.
		c.HeartbeatInterval = 5 * time.Millisecond
	}
}

// Stats aggregates engine activity.
type Stats struct {
	Instructions    uint64
	ContextSwitches uint64
	Reboots         uint64
	PathsCompleted  int
	// ReplayedInstructions counts re-executed prefix instructions in
	// ModeNaiveReboot.
	ReplayedInstructions uint64
	// ReplayedIO counts re-issued I/O interactions in
	// ModeRecordReplay.
	ReplayedIO uint64
	// ReplayDivergences counts replayed reads whose value differed
	// from the recording (the "error-prone" failure mode).
	ReplayDivergences uint64
	// HWViolations counts hardware property violations detected.
	HWViolations int
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.ContextSwitches += o.ContextSwitches
	s.Reboots += o.Reboots
	s.PathsCompleted += o.PathsCompleted
	s.ReplayedInstructions += o.ReplayedInstructions
	s.ReplayedIO += o.ReplayedIO
	s.ReplayDivergences += o.ReplayDivergences
	s.HWViolations += o.HWViolations
}

// SnapshotTraffic summarizes what the copy-on-write snapshot pipeline
// actually moved during a run.
type SnapshotTraffic struct {
	// Manager counts how context-switch operations were served
	// (performed vs. skipped vs. delta).
	Manager SnapManagerStats
	// Store counts dedup hits, structural sharing and bytes.
	Store snapshot.Stats
	// HWSaves / HWRestores / DeltaRestores are the operations that
	// reached the hardware (target-side counters).
	HWSaves       uint64
	HWRestores    uint64
	DeltaRestores uint64
	// BytesMoved is the state bytes that crossed the target link.
	BytesMoved uint64
	// SnapshotTime is the virtual time spent moving state.
	SnapshotTime time.Duration
}

// Add folds o's counters into t. Store is a reading of the run's one
// shared store, not a count of this run's work: t keeps its own.
func (t *SnapshotTraffic) Add(o SnapshotTraffic) {
	t.Manager.Add(o.Manager)
	t.HWSaves += o.HWSaves
	t.HWRestores += o.HWRestores
	t.DeltaRestores += o.DeltaRestores
	t.BytesMoved += o.BytesMoved
	t.SnapshotTime += o.SnapshotTime
}

// since returns the traffic counted after the reading base was taken
// (Store stays t's reading).
func (t SnapshotTraffic) since(base SnapshotTraffic) SnapshotTraffic {
	t.Manager = t.Manager.since(base.Manager)
	t.HWSaves -= base.HWSaves
	t.HWRestores -= base.HWRestores
	t.DeltaRestores -= base.DeltaRestores
	t.BytesMoved -= base.BytesMoved
	t.SnapshotTime -= base.SnapshotTime
	return t
}

// WorkerReport breaks one parallel worker's share of the run out of
// the merged totals. The assignment of subtrees to workers is the
// deterministic greedy schedule computed at merge time (see
// parallel.go), not the racy physical claim order, so the same run
// always produces the same per-worker rows.
type WorkerReport struct {
	// Worker is the worker index in [0, Config.Workers).
	Worker int
	// Subtrees is how many fan-out seeds this worker was assigned.
	Subtrees int
	// Paths counts the finished states produced by those subtrees.
	Paths int
	// VirtualTime is the worker's total subtree virtual time.
	VirtualTime time.Duration
	// Snapshot traffic that this worker's private target moved.
	HWSaves       uint64
	HWRestores    uint64
	DeltaRestores uint64
	BytesMoved    uint64
	SnapshotTime  time.Duration
}

// Tally is the part of a Report that adds: what a run — or one
// subtree of a parallel run — executed, asked the solver and moved
// over the target link. A parallel run's Report is the seed phase's
// tally plus one per subtree (see Report.Add), and a subtree's tally is
// what the campaign journal and the distributed wire carry.
type Tally struct {
	Stats Stats
	// VirtualTime is the total virtual time consumed. For parallel
	// runs this is the seed-phase time plus the makespan of the
	// deterministic worker schedule: the time an N-worker platform
	// rack would have taken, not the sum over workers.
	VirtualTime time.Duration
	// Snapshots is the snapshot-traffic breakdown (zero without
	// hardware attached). For parallel runs, hardware counters sum
	// over the primary and every worker target, and Store reflects
	// the shared store.
	Snapshots SnapshotTraffic
	// Exec is the symbolic executor's activity (instructions, forks,
	// solver calls, undecided queries), summed over all workers.
	Exec symexec.Stats
	// Solver is the constraint solver's effort and per-optimization-
	// stage counters (slices, model hits, rewrites, incremental
	// reuses), summed over all workers.
	Solver solver.Stats
}

// Add folds o into t. Virtual time adds like the rest (the sum is the
// serial work); the parallel merge replaces it with its schedule's
// makespan.
func (t *Tally) Add(o Tally) {
	t.Stats.Add(o.Stats)
	t.VirtualTime += o.VirtualTime
	t.Snapshots.Add(o.Snapshots)
	t.Exec.Add(o.Exec)
	t.Solver.Add(o.Solver)
}

// Report is the outcome of a Run, and of every subtree of a parallel
// one.
type Report struct {
	Finished []*symexec.State
	Tally
	// SeedVirtualTime is the serial seed-phase prefix of VirtualTime
	// (zero for serial runs).
	SeedVirtualTime time.Duration
	// Workers is the per-worker breakdown (nil for serial runs).
	Workers []WorkerReport
	// SolverCache reports the memoized solver service: hits are
	// queries some earlier identical path condition already paid for.
	SolverCache solver.CacheStats
	// Recovery summarizes supervision and crash-recovery activity
	// (all zero for an undisturbed serial run).
	Recovery RecoveryStats
	// Nodes is the per-node breakdown of a distributed run (nil
	// otherwise), filled in by the internal/dist fan-out after the
	// deterministic merge. Like WorkerReport rows it is commentary on
	// where work physically ran; the merged results above are
	// node-count-invariant.
	Nodes []NodeReport
}

// Add appends o's finished paths and folds its tally in.
func (r *Report) Add(o *Report) {
	r.Finished = append(r.Finished, o.Finished...)
	r.Tally.Add(o.Tally)
}

// NodeReport is one distributed node's share of a run: what it
// executed, what the fabrics moved on its behalf, and how its private
// solver cache behaved. The driver's own fallback execution appears
// as the node named "local".
type NodeReport struct {
	// Node is the worker address (host:port), or "local".
	Node string
	// Subtrees / Paths / VirtualTime tally the subtree results this
	// node produced (virtual time is the sum over its subtrees, not
	// the schedule makespan).
	Subtrees    int
	Paths       int
	VirtualTime time.Duration
	// Reconnects counts driver redials to this node that recovered a
	// dropped connection (a node that stays dead is requeued work,
	// counted in Recovery, not here).
	Reconnects int
	// SolverCache is the node-side cache at campaign end: Imported
	// entries arrived over the solver fabric, Published entries were
	// discovered locally and offered to it.
	SolverCache solver.CacheStats
	// SnapBytesShipped is the snapshot state bytes this node actually
	// sent the driver (bug-snapshot delta frames). SnapBytesFull is
	// what a fabric-less transfer of the same records would have cost —
	// the ratio is the digest-peering savings.
	SnapBytesShipped uint64
	SnapBytesFull    uint64
}

// Bugs returns the states that ended in an assertion failure or
// abort, each carrying a satisfying input model.
func (r *Report) Bugs() []*symexec.State {
	var out []*symexec.State
	for _, st := range r.Finished {
		if st.Status == symexec.StatusAssertFail || st.Status == symexec.StatusAborted {
			out = append(out, st)
		}
	}
	return out
}

// CountStatus tallies finished states with the given status.
func (r *Report) CountStatus(s symexec.Status) int {
	n := 0
	for _, st := range r.Finished {
		if st.Status == s {
			n++
		}
	}
	return n
}

// Engine drives one analysis.
type Engine struct {
	cfg   Config
	exec  *symexec.Executor
	rig   *Rig
	snaps *snapshot.Store

	active   []*symexec.State
	finished []*symexec.State
	previous *symexec.State

	// Record-and-replay mode bookkeeping: per-state I/O interaction
	// logs and the cycle counter used to preserve inter-I/O timing.
	ioLogs       map[uint64][]ioRecord
	lastIOCycles uint64
	replayActive bool

	// bugSnaps retains hardware snapshots of buggy states (when
	// KeepBugSnapshots is set), keyed by state ID.
	bugSnaps map[uint64]*snapshot.Record

	// initial overrides the executor's entry state (fast-forwarding).
	initial *symexec.State

	// vtStart anchors the MaxVirtualTime budget to the clock value at
	// run start (worker rigs share one clock across subtrees, so the
	// budget must be relative).
	vtStart time.Duration
	// progressAt is the instruction count of the last Progress sample.
	progressAt uint64
	// trafficBase is the rig's snapshot-traffic reading when this run
	// began: zero for a top-level run, set by runSubtreeOn for a subtree
	// on a rig that has run others.
	trafficBase SnapshotTraffic

	// ctx cancels the run (checked between scheduling iterations, a
	// few dozen steps apart to stay off the hot path); stepHook is the
	// parallel supervisor's per-step seam for heartbeats and chaos
	// injection. ctxSteps counts iterations between ctx checks.
	ctx      context.Context
	ctxSteps int
	stepHook func() error

	stats Stats
}

// ioRecord is one recorded hardware interaction.
type ioRecord struct {
	write bool
	addr  uint32
	val   uint32
	// cyclesBefore is the number of hardware cycles that elapsed
	// since the previous interaction (to reproduce timing-sensitive
	// behaviour during replay).
	cyclesBefore uint64
}

// New builds an engine over a wired rig. A parallel worker's engines
// are all built over the one rig Spawn gave it, so its snapshot
// manager's generation-proven skips survive subtree boundaries and its
// store is the run's shared one.
func New(cfg Config, exec *symexec.Executor, rig *Rig) *Engine {
	cfg.setDefaults()
	e := &Engine{cfg: cfg, exec: exec, rig: rig}
	if rig.Snaps != nil {
		e.snaps = rig.Snaps.Store()
	} else {
		e.snaps = snapshot.NewStore()
	}
	if exec.Solver.Cache == nil {
		// The cache is always on: verdicts are deterministic, so
		// memoization never changes results, only skips repeated
		// identical queries.
		exec.Solver.Cache = solver.NewCache(solver.DefaultCacheCapacity)
	}
	exec.SetMMIO(e)
	return e
}

// BugSnapshot returns the retained hardware snapshot of a buggy state
// (requires Config.KeepBugSnapshots).
func (e *Engine) BugSnapshot(stateID uint64) (*snapshot.Record, bool) {
	rec, ok := e.bugSnaps[stateID]
	return rec, ok
}

// SetInitialState overrides the entry state for the next Run (used by
// fast-forwarding to start symbolic exploration mid-firmware).
func (e *Engine) SetInitialState(st *symexec.State) { e.initial = st }

var _ symexec.MMIOHandler = (*Engine)(nil)

// Read implements the hardware boundary for the executor. The engine
// guarantees the live hardware belongs to st (the context switch
// happened at selection time).
func (e *Engine) Read(st *symexec.State, addr uint32) (uint32, error) {
	if e.rig.Router == nil {
		return 0, errors.New("core: no hardware attached")
	}
	v, err := e.rig.Router.ReadMMIO(addr, 4)
	if err == nil {
		e.record(st, ioRecord{addr: addr, val: v})
	}
	return v, err
}

// Write implements the hardware boundary for the executor.
func (e *Engine) Write(st *symexec.State, addr uint32, val uint32) error {
	if e.rig.Router == nil {
		return errors.New("core: no hardware attached")
	}
	err := e.rig.Router.WriteMMIO(addr, 4, val)
	if err == nil {
		e.record(st, ioRecord{write: true, addr: addr, val: val})
	}
	return err
}

// record appends an interaction to the state's I/O log (record-replay
// mode only; no-op during replay itself).
func (e *Engine) record(st *symexec.State, rec ioRecord) {
	if e.cfg.Mode != ModeRecordReplay || e.replayActive {
		return
	}
	cycles := e.rig.Target.Stats().Cycles
	rec.cyclesBefore = cycles - e.lastIOCycles
	e.lastIOCycles = cycles
	if e.ioLogs == nil {
		e.ioLogs = make(map[uint64][]ioRecord)
	}
	e.ioLogs[st.ID] = append(e.ioLogs[st.ID], rec)
}

// replayLog rebuilds a state's hardware by resetting the platform and
// re-issuing every recorded interaction with its original timing.
// Replayed reads are compared against the recording; divergence is
// counted (the approach's inherent fragility).
func (e *Engine) replayLog(st *symexec.State) error {
	if err := e.rig.Target.Reset(); err != nil {
		return err
	}
	e.rig.Router.ResetIRQEdges(nil)
	e.replayActive = true
	defer func() { e.replayActive = false }()
	for _, rec := range e.ioLogs[st.ID] {
		if rec.cyclesBefore > 0 {
			if err := e.rig.Target.Advance(rec.cyclesBefore); err != nil {
				return err
			}
		}
		if rec.write {
			if err := e.rig.Router.WriteMMIO(rec.addr, 4, rec.val); err != nil {
				return err
			}
		} else {
			v, err := e.rig.Router.ReadMMIO(rec.addr, 4)
			if err != nil {
				return err
			}
			if v != rec.val {
				e.stats.ReplayDivergences++
			}
		}
		e.stats.ReplayedIO++
		if _, err := e.rig.Router.RisingIRQs(); err != nil {
			return err
		}
	}
	e.lastIOCycles = e.rig.Target.Stats().Cycles
	return nil
}

// saveCurrent captures the live hardware into the state's snapshot
// slot (UpdateState of Algorithm 1). The manager skips the hardware
// traffic entirely when the state is already in sync.
func (e *Engine) saveCurrent(st *symexec.State) error {
	id, err := e.rig.Snaps.Sync(snapshot.ID(st.HWSnapshot))
	if err != nil {
		return err
	}
	st.HWSnapshot = symexec.SnapshotID(id)
	return nil
}

// restoreFor loads the state's hardware snapshot into the live
// hardware (RestoreState of Algorithm 1). States without a snapshot
// (never scheduled since forking) inherited one at fork time, so this
// only happens for the initial state, which keeps the power-on
// hardware.
func (e *Engine) restoreFor(st *symexec.State) error {
	if err := e.rig.Snaps.Restore(snapshot.ID(st.HWSnapshot)); err != nil {
		return fmt.Errorf("core: state %d: %w", st.ID, err)
	}
	return nil
}

// contextSwitch implements lines 5-9 of Algorithm 1 for the selected
// state.
func (e *Engine) contextSwitch(next *symexec.State) error {
	if e.rig.Target == nil || e.previous == next {
		return nil
	}
	switch e.cfg.Mode {
	case ModeHardSnap:
		if e.previous != nil {
			if err := e.saveCurrent(e.previous); err != nil {
				return fmt.Errorf("core: UpdateState: %w", err)
			}
		}
		if err := e.restoreFor(next); err != nil {
			return fmt.Errorf("core: RestoreState: %w", err)
		}
		e.stats.ContextSwitches++

	case ModeNaiveReboot:
		// The baseline reboots the platform and re-executes the path
		// prefix to reach the same point; deterministic firmware
		// reproduces the same hardware state, so we restore it
		// directly but charge reboot plus replay time.
		if e.previous != nil {
			if err := e.saveCurrent(e.previous); err != nil {
				return err
			}
		}
		if err := e.restoreFor(next); err != nil {
			return err
		}
		e.rig.Clock.Advance(vtime.RebootTime)
		replay := time.Duration(next.Steps) * vtime.VMInstruction
		e.rig.Clock.Advance(replay)
		e.stats.Reboots++
		e.stats.ReplayedInstructions += next.Steps

	case ModeNaiveShared:
		// No switching: states stomp on each other's hardware.

	case ModeRecordReplay:
		if err := e.replayLog(next); err != nil {
			return fmt.Errorf("core: record-replay: %w", err)
		}
		e.stats.ContextSwitches++
	}
	return nil
}

// selectNext applies the searcher plus INCEPTION's interrupt
// atomicity: while the previous state is inside an interrupt handler
// it keeps running.
func (e *Engine) selectNext() *symexec.State {
	if e.previous != nil && e.previous.InHandler && e.previous.Status == symexec.StatusRunning {
		for _, st := range e.active {
			if st == e.previous {
				return st
			}
		}
	}
	idx := e.cfg.Searcher.Select(e.active, e.previous)
	if idx < 0 || idx >= len(e.active) {
		idx = len(e.active) - 1
	}
	return e.active[idx]
}

func (e *Engine) removeActive(st *symexec.State) {
	for i, s := range e.active {
		if s == st {
			e.active = append(e.active[:i], e.active[i+1:]...)
			return
		}
	}
}

func (e *Engine) finish(st *symexec.State) {
	e.removeActive(st)
	e.finished = append(e.finished, st)
	e.stats.PathsCompleted++
	if e.cfg.KeepBugSnapshots && e.rig.Target != nil && e.previous == st &&
		(st.Status == symexec.StatusAborted || st.Status == symexec.StatusAssertFail) {
		// The live hardware still belongs to this state: capture it
		// for the crash report. When the state's snapshot is already
		// current this reuses the stored record instead of a second
		// full save.
		if rec, err := e.rig.Snaps.LiveRecord(); err == nil {
			if e.bugSnaps == nil {
				e.bugSnaps = make(map[uint64]*snapshot.Record)
			}
			e.bugSnaps[st.ID] = rec
		}
	}
	if st.HWSnapshot != 0 {
		e.snaps.Release(snapshot.ID(st.HWSnapshot))
		st.HWSnapshot = 0
	}
	delete(e.ioLogs, st.ID)
	if e.previous == st {
		e.previous = nil
	}
}

// Run executes Algorithm 1 until the active set drains or the
// instruction budget is exhausted. With Config.Workers > 1 the run
// fans out to the parallel engine after a serial seed phase (see
// parallel.go).
func (e *Engine) Run() (*Report, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cancellation: when ctx is cancelled the run
// stops at the next scheduling boundary and returns ErrInterrupted.
// Parallel runs with journaling enabled flush the campaign journal
// first, so an interrupted run can be continued with Config.Resume.
func (e *Engine) RunContext(ctx context.Context) (*Report, error) {
	e.ctx = ctx
	if err := ctx.Err(); err != nil {
		return nil, ErrInterrupted
	}
	if cam := e.cfg.Resume; cam != nil && cam.Complete {
		return nil, fmt.Errorf("core: %s: campaign is already complete", cam.Path)
	}
	if e.cfg.Workers > 1 {
		return e.runParallel(ctx)
	}
	if e.cfg.JournalPath != "" || e.cfg.Resume != nil {
		return nil, errors.New("core: campaign journaling requires Workers > 1")
	}
	start := e.rig.Clock.Now()
	e.vtStart = start
	e.initActive()
	if err := e.loop(nil); err != nil {
		return nil, err
	}
	return e.finalize(start), nil
}

// initActive seeds the active set with the entry (or injected) state.
func (e *Engine) initActive() {
	init := e.initial
	if init == nil {
		init = e.exec.InitialState()
	}
	e.active = []*symexec.State{init}
}

// seedIOLog installs a recorded interaction log for a state (the
// parallel layer transplants seed logs into worker engines for
// record-replay mode).
func (e *Engine) seedIOLog(id uint64, log []ioRecord) {
	if e.ioLogs == nil {
		e.ioLogs = make(map[uint64][]ioRecord)
	}
	e.ioLogs[id] = append([]ioRecord(nil), log...)
}

// budgetExhausted reports whether the virtual-time or solver-query
// budget is spent (instruction exhaustion is loop's own condition).
// Checked between scheduling iterations, so a run can overshoot a
// budget by at most one step's worth of work.
func (e *Engine) budgetExhausted() bool {
	if e.cfg.MaxVirtualTime > 0 && e.rig.Clock.Now()-e.vtStart >= e.cfg.MaxVirtualTime {
		return true
	}
	if e.cfg.MaxSolverQueries > 0 && uint64(e.exec.Solver.Stats.Queries) >= e.cfg.MaxSolverQueries {
		return true
	}
	return false
}

// loop runs scheduling iterations until the active set drains, a
// budget (instructions, virtual time, solver queries) is exhausted,
// or stop returns true (checked between iterations; nil means run to
// completion). The parallel seed phase uses stop to pause at the
// fan-out width.
func (e *Engine) loop(stop func() bool) error {
	for len(e.active) > 0 && e.stats.Instructions < e.cfg.MaxInstructions && !e.budgetExhausted() {
		if stop != nil && stop() {
			return nil
		}
		if e.ctx != nil {
			// Cancellation is checked every 64 iterations: responsive
			// enough for interrupts and worker deposition, cheap enough
			// to keep off the per-instruction budget.
			if e.ctxSteps++; e.ctxSteps&63 == 0 {
				if e.ctx.Err() != nil {
					return ErrInterrupted
				}
			}
		}
		if err := e.step(); err != nil {
			return err
		}
		if e.cfg.Progress != nil && e.stats.Instructions-e.progressAt >= 4096 {
			e.progressAt = e.stats.Instructions
			e.cfg.Progress(ProgressEvent{Instructions: e.stats.Instructions})
		}
	}
	return nil
}

// step is one iteration of Algorithm 1's main loop: select, context
// switch, execute one instruction, account forks, run peripherals,
// deliver interrupts, check hardware properties.
func (e *Engine) step() error {
	if e.stepHook != nil {
		if err := e.stepHook(); err != nil {
			return err
		}
	}
	st := e.selectNext()
	if err := e.contextSwitch(st); err != nil {
		return err
	}
	e.previous = st

	if err := e.exec.ServePendingInterrupt(st); err != nil {
		st.Status = symexec.StatusFault
		st.Err = err
		e.finish(st)
		return nil
	}

	forks, err := e.exec.Step(st)
	if err != nil {
		return fmt.Errorf("core: step state %d: %w", st.ID, err)
	}
	e.stats.Instructions++
	e.rig.Clock.Advance(vtime.VMInstruction)

	// Fork bookkeeping: each new state receives its own private
	// hardware snapshot taken now (the fork point), per Section
	// IV-B.
	for _, f := range forks {
		switch {
		case e.rig.Target != nil && (e.cfg.Mode == ModeHardSnap || e.cfg.Mode == ModeNaiveReboot):
			// Capture dedups against the live content: forking off
			// untouched hardware is a refcount++, not a second
			// scan-out.
			id, err := e.rig.Snaps.Capture()
			if err != nil {
				return fmt.Errorf("core: snapshot at fork: %w", err)
			}
			f.HWSnapshot = symexec.SnapshotID(id)
		case e.rig.Target != nil && e.cfg.Mode == ModeRecordReplay:
			// The child inherits the parent's interaction log.
			if e.ioLogs == nil {
				e.ioLogs = make(map[uint64][]ioRecord)
			}
			e.ioLogs[f.ID] = append([]ioRecord(nil), e.ioLogs[st.ID]...)
		}
		if len(e.active) >= MaxStates {
			f.Status = symexec.StatusBudget
			e.finished = append(e.finished, f)
			continue
		}
		e.active = append(e.active, f)
	}

	// Let the peripherals run concurrently with software, deliver any
	// rising interrupts to the running state, then check hardware
	// properties: a violation terminates the path that caused it,
	// carrying the violation detail and an input model. A path that
	// stopped on its own is not ticked, but leaves no violation behind
	// for the next state either.
	if e.rig.Target != nil {
		if st.Status == symexec.StatusRunning {
			var buf [vm.NumIRQs]int
			irqs, violations, err := e.rig.Tick(buf[:0])
			if err != nil {
				return err
			}
			for _, n := range irqs {
				st.IRQPending |= 1 << uint(n)
			}
			if len(violations) > 0 {
				st.Status = symexec.StatusAssertFail
				st.Err = fmt.Errorf("core: %s", violations[0])
				if model, ok := e.exec.ModelFor(st); ok {
					st.Model = model
				}
				e.stats.HWViolations += len(violations)
			}
		} else {
			e.rig.Target.TakeViolations()
		}
	}

	if st.Status != symexec.StatusRunning {
		e.finish(st)
	}
	return nil
}

// finalize marks budget-exhausted leftovers, releases their
// snapshots, and assembles the report.
func (e *Engine) finalize(start time.Duration) *Report {
	if e.rig.Router != nil {
		// Drain any coalescing ports so the clock and the target
		// counters below reflect every queued operation. A flush
		// failure here cannot change the verdicts (the run already
		// completed); it only leaves the final counters short.
		_ = e.rig.Router.Flush()
	}
	for _, st := range e.active {
		if st.Status == symexec.StatusRunning {
			st.Status = symexec.StatusBudget
		}
		e.finished = append(e.finished, st)
		if st.HWSnapshot != 0 {
			e.snaps.Release(snapshot.ID(st.HWSnapshot))
		}
	}
	e.active = nil

	return e.report(e.rig.Clock.Now() - start)
}

// report assembles the engine's own outcome so far, vt being the
// virtual time it is charged.
func (e *Engine) report(vt time.Duration) *Report {
	rep := &Report{
		Finished: e.finished,
		Tally: Tally{
			Stats:       e.stats,
			VirtualTime: vt,
			Snapshots:   e.traffic(),
			Exec:        e.exec.Stats,
			Solver:      e.exec.Solver.Stats,
		},
	}
	if e.exec.Solver.Cache != nil {
		rep.SolverCache = e.exec.Solver.Cache.Stats()
	}
	return rep
}

// traffic reads what the snapshot pipeline moved since trafficBase
// (zero without hardware attached).
func (e *Engine) traffic() SnapshotTraffic {
	if e.rig.Target == nil {
		return SnapshotTraffic{}
	}
	ts := e.rig.Target.Stats()
	return SnapshotTraffic{
		Manager:       e.rig.Snaps.Stats(),
		Store:         e.snaps.Stats(),
		HWSaves:       ts.Snapshots,
		HWRestores:    ts.Restores,
		DeltaRestores: ts.DeltaRestores,
		BytesMoved:    ts.SnapshotBytes,
		SnapshotTime:  ts.SnapshotTime,
	}.since(e.trafficBase)
}
