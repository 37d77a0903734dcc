// Parallel exploration: sharded workers with per-worker hardware
// targets, a shared solver cache, and a supervisor that makes the
// whole thing crash-safe.
//
// A run with Config.Workers = N > 1 proceeds in three phases:
//
//  1. Seed. The serial loop of Algorithm 1 runs on the primary target
//     under the global Searcher until the active set reaches the
//     fan-out width (a few subtrees per worker, for load balance) or
//     the tree drains first (in which case the result IS the serial
//     result). This single-goroutine phase is the only place the
//     global Searcher's Select is ever called, per its contract.
//  2. Fan-out. Each surviving active state becomes a subtree seed.
//     Every worker owns a spawned clone of the primary target (same
//     power-on state), its own bus router and SnapshotManager, and
//     pulls seed indexes from a shared queue — work stealing: fast
//     workers drain more subtrees. Per subtree, the worker builds a
//     private engine around a spawned executor
//     (shared concurrency-safe term Builder, shared memoized solver
//     cache, private Solver, collision-free state-ID stripe) and a
//     forked searcher, then runs the ordinary serial loop to
//     completion. Hardware snapshots live in the one shared
//     content-addressed store, so identical states forked by
//     different workers still dedup structurally.
//  3. Merge. Results are merged in seed order (not completion
//     order), so reports are deterministic. Virtual time is
//     seed-phase time plus the makespan of a greedy deterministic
//     schedule of subtree times onto N virtual workers — the time an
//     N-target rack takes, independent of the racy physical claim
//     order. Per-worker traffic columns come from the same schedule.
//
// The fan-out runs under a supervisor (see supervisor below), and it
// is the only subtree scheduler in the repo: Frontier.Run takes the
// worker slots as an argument, so the same queue, completion
// tracking, recovery policy and journal serve a rack of local rigs
// (LocalSlots, what runParallel passes) and a fleet of remote nodes
// (internal/dist passes slots whose executors forward the seed index
// over a connection). Worker panics are recovered, and a failed
// worker's in-flight subtree is requeued and absorbed by surviving
// workers or by bounded-backoff replacement generations — a fresh rig
// re-seeded from the content-addressed snapshot store, or a redialed
// connection — and, when journaling is enabled, every completed
// subtree is appended to the campaign journal so a killed process can
// resume. Because every
// subtree result is a pure function of its seed index, recovery
// replays are byte-identical to first attempts, and a chaos-ridden
// run merges to exactly the undisturbed report.
//
// Determinism contract: for a fixed seed and a run that completes
// within budget, an N-worker run produces the same bug set, path
// count and per-path verdicts as the 1-worker run, in all four modes.
// Two footnotes, both inherent rather than implementation choices:
// ModeNaiveShared has no consistency story by design (it is the
// paper's failure baseline); here every subtree starts from the
// fan-out live hardware state, which makes parallel naive-shared runs
// deterministic, but their divergence from the serial interleaving is
// exactly the inconsistency the mode demonstrates. And when the
// instruction budget binds, each subtree gets the remaining budget
// independently, so a parallel run can retire more total instructions
// than a serial one before stopping.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
)

// subtreeIDStride separates the state-ID ranges of sibling subtrees:
// subtree i allocates IDs from seedMax + (i+1)*stride. 2^32 states
// per subtree is far above any reachable budget.
const subtreeIDStride = uint64(1) << 32

// seedsPerWorker controls the fan-out width: more subtrees than
// workers so work stealing can balance uneven subtree sizes.
const seedsPerWorker = 4

func seedFanout(override, workers int) int {
	f := workers * seedsPerWorker
	if override > 0 {
		f = override
	}
	if f > MaxStates {
		f = MaxStates
	}
	if f < workers {
		f = workers
	}
	return f
}

// runParallel is the Workers > 1 entry point (dispatched from Run):
// the frontier's seed phase, then the supervised fan-out over
// Config.Workers local rigs. The distributed driver (internal/dist)
// makes the same Frontier.Run call with node-connection slots.
func (e *Engine) runParallel(ctx context.Context) (*Report, error) {
	f, err := e.Frontier(ctx)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Run(ctx, f.LocalSlots(e.cfg.Workers), nil)
}

// Executor is where one worker's subtrees execute: it explores fan-out
// seed idx to completion (attempt counts earlier failed tries at idx,
// 0 for the first) and returns the result. The supervisor does not
// care whether that happens on a local rig or across a connection to
// another machine; by the purity contract the result is the same.
// A returned error (or a panic) requeues the subtree and retires the
// executor: whatever it ran on is no longer trusted.
type Executor func(ctx context.Context, idx, attempt int) (*SubtreeResult, error)

// Slot builds the Executor for one generation of one worker position.
// The supervisor calls it once when the run starts and again for every
// replacement it spawns after the previous generation failed, so a
// Slot is where a fresh rig is spawned or a dead connection redialed.
// ctx lives exactly as long as the generation: resources the executor
// holds are released when it is cancelled.
type Slot func(ctx context.Context, w *Worker) (Executor, error)

// Worker identifies the generation a Slot is building for.
type Worker struct {
	// Slot is the worker position, an index into the run's slot list
	// (fallback slots follow the primary ones).
	Slot int
	// Gen is 0 for the worker the run started with and n for the n-th
	// replacement spawned campaign-wide.
	Gen int

	sup *supervisor
}

// Run drives the fan-out to completion on the given worker slots and
// returns the merged report: one supervisor (work queue, completion
// tracking, bounded requeue and replacement, chaos die gate) and one
// campaign journal writer, whoever executes the subtrees. The fallback slots stay idle unless every primary
// worker has failed past the restart budget with work remaining —
// the point where a run without fallback fails. Journaling, resume,
// progress and chaos come from the engine's Config as in any parallel
// run. When the seed phase already finished the run, Run journals
// that and returns Done.
func (f *Frontier) Run(ctx context.Context, slots, fallback []Slot) (*Report, error) {
	sup, err := newSupervisor(ctx, f, slots, fallback)
	if err != nil {
		return nil, err
	}
	if err := sup.run(); err != nil {
		return nil, err
	}
	if f.done != nil {
		// The tree drained (or the budget died) before the fan-out
		// width was reached: the serial result is the result.
		return f.done, nil
	}
	rep := f.e.merge(f.seedVT, f.e.cfg.Workers, sup.results)
	rep.Recovery = sup.recovery()
	return rep, nil
}

// LocalSlots returns n slots whose executors run subtrees on private
// rigs spawned from the engine's own target: what a local parallel
// run uses for all of its workers and a distributed run for its
// fallback. Each generation spawns a fresh rig; its executor is where
// ChaosSchedule step events land.
func (f *Frontier) LocalSlots(n int) []Slot {
	slots := make([]Slot, n)
	for i := range slots {
		slots[i] = f.localSlot
	}
	return slots
}

func (f *Frontier) localSlot(ctx context.Context, w *Worker) (Executor, error) {
	suffix := fmt.Sprintf("-w%d", w.Slot)
	if w.Gen > 0 {
		suffix = fmt.Sprintf("%s-r%d", suffix, w.Gen)
	}
	rig, err := f.spawnRig(suffix)
	if err != nil {
		return nil, err
	}
	return func(wctx context.Context, idx, attempt int) (*SubtreeResult, error) {
		return f.runSubtreeOn(wctx, idx, rig, w.stepHook(idx, attempt, rig))
	}, nil
}

// supervisor owns the fan-out: the work queue, completion tracking,
// requeue and replacement policy, and the campaign journal. All
// mutable campaign state is guarded by mu.
type supervisor struct {
	e      *Engine
	f      *Frontier
	ctx    context.Context
	cancel context.CancelFunc
	seeds  []*symexec.State

	work     chan int      // pending subtree indexes (cap = len(seeds))
	workDone chan struct{} // closed when every subtree has completed

	mu             sync.Mutex
	results        []*SubtreeResult
	completed      []bool
	attempts       []int
	remaining      int
	freshCompleted int // completions by this process (chaos die gate)
	restarts       int
	liveWorkers    int
	fatal          error
	interrupted    bool
	rec            RecoveryStats
	log            *campaignLog
	slots          []Slot
	primary        int // slots[:primary] start with the run, the rest are the fallback

	wg sync.WaitGroup
}

func newSupervisor(ctx context.Context, f *Frontier, slots, fallback []Slot) (*supervisor, error) {
	seeds := f.seeds
	if len(seeds) > 0 && len(slots) == 0 {
		return nil, errors.New("core: parallel run needs at least one worker slot")
	}
	log, err := openCampaignLog(&f.e.cfg, f.id)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &supervisor{
		e: f.e, f: f, ctx: sctx, cancel: cancel,
		seeds:     seeds,
		work:      make(chan int, len(seeds)),
		workDone:  make(chan struct{}),
		results:   make([]*SubtreeResult, len(seeds)),
		completed: make([]bool, len(seeds)),
		attempts:  make([]int, len(seeds)),
		remaining: len(seeds),
		log:       log,
		slots:     slices.Concat(slots, fallback),
		primary:   len(slots),
	}
	if cam := f.e.cfg.Resume; cam != nil {
		for idx, res := range cam.Results {
			if idx < 0 || idx >= len(seeds) || s.completed[idx] {
				continue
			}
			s.results[idx] = res
			s.completed[idx] = true
			s.remaining--
			s.rec.ResumedSubtrees++
		}
	}
	return s, nil
}

// run drives the fan-out to completion (or to interruption/failure)
// and leaves the journal in the state the outcome deserves: complete
// record on success, synced partial history otherwise.
func (s *supervisor) run() error {
	defer s.cancel()
	defer s.log.close()
	// Attempts run on adopted snapshot references; the seeds' original
	// references are dropped by Frontier.Close once no attempt can
	// start anymore (the caller defers it past this return).
	if s.remaining == 0 {
		close(s.workDone)
		return s.log.finish()
	}
	for idx := range s.seeds {
		if !s.completed[idx] {
			s.work <- idx
		}
	}
	s.mu.Lock()
	s.startWorkersLocked(0, s.primary)
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	fatal, interrupted := s.fatal, s.interrupted
	s.mu.Unlock()
	if fatal != nil {
		return fatal
	}
	if interrupted || s.ctx.Err() != nil {
		s.log.sync()
		return ErrInterrupted
	}
	return s.log.finish()
}

// startWorkersLocked launches generation 0 of slots[from:to].
func (s *supervisor) startWorkersLocked(from, to int) {
	s.liveWorkers += to - from
	for slot := from; slot < to; slot++ {
		s.wg.Add(1)
		go s.workerMain(slot, 0, time.Time{})
	}
}

// recovery snapshots the recovery counters (after run returns).
func (s *supervisor) recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.rec
	st := s.log.stats()
	rec.JournalRecords = st.Records
	rec.JournalBytes = st.Bytes
	rec.JournalWall = s.log.wall
	return rec
}

// workerMain is one worker generation: build the slot's executor,
// drain subtrees, and hand the exit to the supervisor (which decides
// whether a replacement is due).
func (s *supervisor) workerMain(slot, gen int, since time.Time) {
	defer s.wg.Done()
	wctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	err := s.workerLoop(slot, gen, wctx, since)
	s.workerExited(slot, err)
}

func (s *supervisor) workerLoop(slot, gen int, wctx context.Context, since time.Time) error {
	exec, err := s.slots[slot](wctx, &Worker{Slot: slot, Gen: gen, sup: s})
	if err != nil {
		return err
	}
	if !since.IsZero() {
		// Replacement worker: backoff + executor rebuild is the
		// recovery latency.
		s.mu.Lock()
		s.rec.RecoveryWall += time.Since(since)
		s.mu.Unlock()
	}
	for {
		select {
		case <-wctx.Done():
			return nil // whole-run shutdown
		case <-s.workDone:
			return nil
		case idx := <-s.work:
			s.mu.Lock()
			attempt := s.attempts[idx]
			s.mu.Unlock()
			res, rerr := runGuarded(wctx, exec, idx, attempt)
			if rerr == nil {
				s.complete(idx, attempt, res)
				continue
			}
			if s.ctx.Err() != nil {
				return nil // shutdown mid-subtree: leave it pending
			}
			// Requeue the subtree for someone with a clean executor,
			// then retire: this one saw a failure mid-exploration and
			// its hardware state (or its link) cannot be trusted.
			s.requeue(idx, rerr)
			return rerr
		}
	}
}

// panicError wraps a recovered worker panic so requeue can count it.
type panicError struct{ err error }

func (p panicError) Error() string { return p.err.Error() }
func (p panicError) Unwrap() error { return p.err }

// runGuarded runs one subtree attempt with panic recovery: a panic
// anywhere in the engine, executor or target stack becomes an
// ordinary requeue-and-retire failure instead of killing the process.
func runGuarded(wctx context.Context, exec Executor, idx, attempt int) (res *SubtreeResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, panicError{fmt.Errorf("core: subtree %d: panic: %v", idx, p)}
		}
	}()
	res, err = exec(wctx, idx, attempt)
	if err != nil {
		return nil, err
	}
	if res.Index != idx {
		return nil, fmt.Errorf("core: subtree %d: executor returned subtree %d", idx, res.Index)
	}
	return res, nil
}

// complete records a finished subtree, journals the result, tracks
// the chaos die gate, and closes the campaign when the last subtree
// lands. A subtree is requeued only after its attempt returned, so it
// is in flight on at most one worker; the completed check keeps a
// result from being counted twice if that ever breaks.
func (s *supervisor) complete(idx, attempt int, res *SubtreeResult) {
	s.mu.Lock()
	if s.completed[idx] {
		s.mu.Unlock()
		return
	}
	s.completed[idx] = true
	s.results[idx] = res
	s.remaining--
	s.freshCompleted++
	if attempt > 0 {
		// The subtree's original executor failed; this completion
		// happened on a fresh one re-seeded from the shared snapshot
		// store (or on another node's own copy of the frontier).
		s.rec.FailoverEvents++
	}
	if err := s.log.appendSubtree(res, s.remaining == 0); err != nil && s.fatal == nil {
		s.fatal = fmt.Errorf("core: campaign journal: %w", err)
		s.mu.Unlock()
		s.cancel()
		return
	}
	chaos := s.e.cfg.Chaos
	die := chaos != nil && chaos.DieAfterSubtrees > 0 &&
		s.freshCompleted == chaos.DieAfterSubtrees && s.remaining > 0
	if die {
		s.interrupted = true
	}
	done := s.remaining == 0
	doneCount := len(s.seeds) - s.remaining
	s.mu.Unlock()
	if p := s.e.cfg.Progress; p != nil {
		p(ProgressEvent{SubtreesDone: doneCount, Subtrees: len(s.seeds)})
	}
	if die {
		s.cancel()
	}
	if done {
		close(s.workDone)
	}
}

// requeue returns a failed subtree to the queue (bounded attempts),
// counting the failure mode. The work channel's capacity is the seed
// count and an index is queued at most once at a time, so the send
// never blocks.
func (s *supervisor) requeue(idx int, err error) {
	s.mu.Lock()
	if s.completed[idx] || s.fatal != nil {
		s.mu.Unlock()
		return
	}
	s.attempts[idx]++
	s.rec.Requeues++
	var pe panicError
	if errors.As(err, &pe) {
		s.rec.PanicsRecovered++
	}
	if s.attempts[idx] > maxSubtreeRetries {
		s.fatal = fmt.Errorf("core: subtree %d failed after %d attempts: %w", idx, s.attempts[idx], err)
		s.mu.Unlock()
		s.cancel()
		return
	}
	s.mu.Unlock()
	s.work <- idx
}

// workerExited decides what a worker's death means for the campaign:
// clean exits (drained queue, shutdown) pass; failures spawn a
// bounded-backoff replacement while the restart budget lasts; past
// the budget the survivors absorb the queue, and if none remain the
// fallback slots start — or, without any, the campaign fails.
func (s *supervisor) workerExited(slot int, err error) {
	s.mu.Lock()
	s.liveWorkers--
	if err == nil || s.fatal != nil || s.interrupted || s.ctx.Err() != nil {
		s.mu.Unlock()
		return
	}
	if s.restarts >= s.e.cfg.MaxWorkerRestarts {
		if s.liveWorkers == 0 && s.remaining > 0 {
			if from := s.primary; from < len(s.slots) {
				// Nobody is left to absorb the queue: the fallback
				// slots take over, once, with a restart budget of
				// their own (the spent one was the primary fleet's).
				s.primary = len(s.slots)
				s.restarts = 0
				s.startWorkersLocked(from, len(s.slots))
				s.mu.Unlock()
				return
			}
			s.fatal = fmt.Errorf("core: worker restart budget exhausted (%d): %w", s.restarts, err)
			s.mu.Unlock()
			s.cancel()
			return
		}
		s.mu.Unlock()
		return
	}
	s.restarts++
	gen := s.restarts
	s.rec.WorkerRestarts++
	s.liveWorkers++
	s.mu.Unlock()

	delay := restartBackoff(gen)
	s.wg.Add(1)
	go func() {
		since := time.Now()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-s.ctx.Done():
		}
		s.workerMain(slot, gen, since)
	}()
}

// stepHook builds the per-step seam for one subtree attempt on a local
// rig: the attempt's scheduled chaos event. Returns nil when none is
// planned, keeping undisturbed runs hook-free.
func (w *Worker) stepHook(idx, attempt int, rig *Rig) func() error {
	s := w.sup
	ev, at := s.e.cfg.Chaos.plan(idx, attempt)
	if ev == chaosNone {
		return nil
	}
	var step uint64
	return func() error {
		if step++; step != at {
			return nil
		}
		switch ev {
		case chaosPanic:
			panic(fmt.Sprintf("chaos: injected panic in subtree %d", idx))
		case chaosKill:
			return fmt.Errorf("chaos: injected worker kill in subtree %d", idx)
		case chaosSever:
			if sev, ok := rig.Target.(linkSeverer); ok {
				_ = sev.SeverLink()
				s.mu.Lock()
				s.rec.FailoverEvents++
				s.mu.Unlock()
			}
		}
		return nil
	}
}

// merge combines the seed-phase prefix with every subtree result, in
// seed order, and prices the run with a deterministic greedy schedule
// (longest-prefix list scheduling: each subtree goes to the currently
// least-loaded virtual worker, ties to the lowest index).
func (e *Engine) merge(seedVT time.Duration, workers int, results []*SubtreeResult) *Report {
	// The seed phase ran on the primary executor and target; subtree
	// executors are spawned fresh and subtree traffic is counted from
	// the subtree boundary, so every result below is a pure addend.
	rep := e.report(seedVT)
	rep.SeedVirtualTime = seedVT
	wreps := make([]WorkerReport, workers)
	for i := range wreps {
		wreps[i].Worker = i
	}
	for _, res := range results {
		if res == nil {
			continue
		}
		best := 0
		for w := 1; w < workers; w++ {
			if wreps[w].VirtualTime < wreps[best].VirtualTime {
				best = w
			}
		}
		wr, sub := &wreps[best], res.Report
		wr.Subtrees++
		wr.Paths += len(sub.Finished)
		wr.VirtualTime += sub.VirtualTime
		wr.Traffic.add(sub.Snapshots)

		rep.Add(sub)
		for id, snap := range res.BugSnaps {
			if e.bugSnaps == nil {
				e.bugSnaps = make(map[uint64]*snapshot.Record)
			}
			e.bugSnaps[id] = snap
		}
	}
	makespan := time.Duration(0)
	for _, wr := range wreps {
		makespan = max(makespan, wr.VirtualTime)
	}
	rep.VirtualTime = seedVT + makespan
	rep.Workers = wreps
	e.finished = rep.Finished
	return rep
}
