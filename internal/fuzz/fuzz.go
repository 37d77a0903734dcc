// Package fuzz implements a coverage-guided mutational fuzzer for
// HS32 firmware with hardware peripherals in the loop, rebuilt around
// the throughput the paper's snapshot-based reset makes possible:
//
//   - The hot loop is allocation-free in the steady state: edge
//     coverage lands in a fixed 64 KiB AFL-style bitmap (prevPC-hash
//     XOR PC, bucketed hit counts), inputs mutate in preallocated
//     scratch buffers, and the per-instruction path does no interface
//     calls and no allocations (BenchmarkFuzzExec proves 0 allocs/exec).
//   - N parallel workers fuzz privately spawned targets sharing a
//     global coverage map under one lock (a worker takes it only for
//     an exec that lit a bit new to the worker), a deduplicated
//     corpus, and a content-addressed snapshot store.
//   - A hybrid concolic mode closes the fuzz<->symexec loop: frontier
//     branches whose far side stays uncovered after K executions are
//     replayed concolically (internal/symexec), the uncovered side is
//     solved for (internal/solver), and the model is injected back as
//     a corpus seed.
//
// The firmware under test requests input via `ecall 1`
// (make-symbolic): the fuzzer intercepts the call and copies the
// current test case into the requested buffer.
package fuzz

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hardsnap/internal/asm"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vm"
)

// ResetStrategy selects how state is reset between executions.
type ResetStrategy int

// Reset strategies.
const (
	// ResetReboot fully reboots CPU and hardware (the naive baseline;
	// charged vtime.RebootTime plus firmware re-initialization).
	ResetReboot ResetStrategy = iota + 1
	// ResetSnapshot restores a HardSnap HW/SW snapshot taken at the
	// first `ecall 6` (snapshot hint) or at the entry point.
	ResetSnapshot
	// ResetNone never resets (fast and wrong: state pollution).
	ResetNone
)

// String names the strategy.
func (r ResetStrategy) String() string {
	switch r {
	case ResetReboot:
		return "reboot"
	case ResetSnapshot:
		return "snapshot"
	case ResetNone:
		return "none"
	}
	return "?"
}

// Config parameterizes a fuzzing campaign.
type Config struct {
	// Program is the assembled firmware.
	Program *asm.Program
	// Peripherals populate the hardware target.
	Peripherals []target.PeriphConfig
	// FPGA hosts the peripherals on the FPGA target.
	FPGA bool
	// Reset selects the inter-execution reset strategy.
	Reset ResetStrategy
	// MaxExecs bounds the number of test cases (default 256), split
	// across workers.
	MaxExecs int
	// MaxStepsPerExec bounds each execution (default 50k).
	MaxStepsPerExec uint64
	// InputLen is the test case size (default 8).
	InputLen int
	// Seeds optionally prime the corpus.
	Seeds [][]byte
	// Seed makes the campaign deterministic (per worker; runs with
	// Workers <= 1 are byte-for-byte reproducible).
	Seed int64

	// Workers is the number of parallel fuzz workers, each with a
	// privately spawned target sharing the global coverage map,
	// corpus, and snapshot store (default 1).
	Workers int

	// Hybrid enables the concolic feedback loop: frontier branches
	// whose far side stays uncovered after frontierK executions are
	// replayed concolically and the uncovered side is solved for.
	Hybrid bool

	// CorpusDir, when set, persists the corpus across campaigns:
	// queue inputs are loaded as seeds at startup and the
	// deduplicated queue plus crash buckets are written back at the
	// end. A suppressions.txt file in the directory mutes known crash
	// buckets.
	CorpusDir string

	// Stats, when set, receives a live one-line status every
	// statsEvery executions.
	Stats io.Writer
}

// statsEvery is the stats-line period in executions.
const statsEvery = 100

// frontierK is the per-branch execution count before a one-sided
// branch is escalated to the solver.
const frontierK = 8

func (cfg *Config) withDefaults() Config {
	c := *cfg
	if c.MaxExecs <= 0 {
		c.MaxExecs = 256
	}
	if c.MaxStepsPerExec == 0 {
		c.MaxStepsPerExec = 50_000
	}
	if c.InputLen <= 0 {
		c.InputLen = 8
	}
	if c.Reset == 0 {
		c.Reset = ResetSnapshot
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Crash describes one crash bucket: the first input observed to crash
// at (PC, Stop) plus how often the bucket was hit.
type Crash struct {
	Input []byte
	Stop  vm.StopReason
	PC    uint32
	Exec  int
	// Count is the number of executions that landed in this bucket.
	Count int
}

// Result summarizes a campaign.
type Result struct {
	Execs int
	// Crashes holds one entry per (PC, StopReason) bucket, ordered by
	// first sighting.
	Crashes []Crash
	Edges   int
	Corpus  int
	// VirtTime is the campaign makespan: the largest per-worker
	// virtual-time elapsed (workers run concurrently, so wall-clock
	// analogies apply).
	VirtTime time.Duration
	// ResetTime is the total virtual time spent in inter-execution
	// resets, summed across workers.
	ResetTime time.Duration
	// ExecsPerVirtSecond is the headline fuzzing throughput
	// (Execs / VirtTime, so N workers scale it ~N times).
	ExecsPerVirtSecond float64

	// Workers is the worker count the campaign ran with.
	Workers int
	// TimeToFirstCrash is the earliest per-worker virtual time at
	// which any crash bucket was first hit (0 if none).
	TimeToFirstCrash time.Duration
	// Suppressed counts crash occurrences muted by the suppression
	// list.
	Suppressed int

	// Hybrid-mode counters.
	//
	// ConcolicRuns counts concolic replays; SolvedSeeds counts solver
	// models injected back into the corpus.
	ConcolicRuns int
	SolvedSeeds  int

	// Snapshot-traffic breakdown (hardware targets only).
	//
	// HWSnapshotBytes is the state bytes that crossed the target
	// link; HWRestores counts restores that reached the hardware, of
	// which DeltaRestores went through the incremental dirty-only
	// path; RestoresSkipped/SavesSkipped were proven redundant by the
	// mutation generation and cost nothing.
	HWSnapshotBytes uint64
	HWRestores      uint64
	DeltaRestores   uint64
	RestoresSkipped uint64
	SavesSkipped    uint64
}

// campaign is the cross-worker shared state.
type campaign struct {
	cfg     Config
	store   *snapshot.Store
	global  *Global
	corpus  *Corpus
	crashes *crashBook

	execs        atomic.Int64
	firstCrashNS atomic.Int64 // earliest worker vtime of first crash; 0 = none

	concolicRuns atomic.Int64
	solvedSeeds  atomic.Int64

	statsMu sync.Mutex
}

// noteFirstCrash records the finding worker's virtual time, keeping
// the minimum across workers.
func (c *campaign) noteFirstCrash(elapsed time.Duration) {
	ns := int64(elapsed)
	if ns == 0 {
		ns = 1 // distinguish "crash at t=0" from "no crash"
	}
	for {
		cur := c.firstCrashNS.Load()
		if cur != 0 && cur <= ns {
			return
		}
		if c.firstCrashNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Run executes a fuzzing campaign.
func Run(cfg Config) (*Result, error) {
	if cfg.Program == nil {
		return nil, errors.New("fuzz: no program")
	}
	cfg = cfg.withDefaults()

	var suppress map[CrashKey]bool
	if cfg.CorpusDir != "" {
		seeds, sup, err := LoadCorpusDir(cfg.CorpusDir)
		if err != nil {
			return nil, err
		}
		cfg.Seeds = append(append([][]byte(nil), cfg.Seeds...), seeds...)
		suppress = sup
	}

	c := &campaign{
		cfg:     cfg,
		store:   snapshot.NewStore(),
		global:  &Global{},
		corpus:  NewCorpus(),
		crashes: newCrashBook(suppress),
	}

	// Workers pull exec quotas statically (round-robin remainder) so
	// single-worker runs consume exactly MaxExecs and multi-worker
	// runs stay balanced.
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		w, err := newWorker(i, c)
		if err != nil {
			return nil, err
		}
		workers[i] = w
	}

	quota := cfg.MaxExecs / cfg.Workers
	extra := cfg.MaxExecs % cfg.Workers
	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers)
	for i, w := range workers {
		q := quota
		if i < extra {
			q++
		}
		wg.Add(1)
		go func(i int, w *worker, q int) {
			defer wg.Done()
			errs[i] = w.run(q)
		}(i, w, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fuzz: worker %d: %w", i, err)
		}
	}

	res := &Result{
		Execs:        int(c.execs.Load()),
		Crashes:      c.crashes.crashes(),
		Edges:        c.global.Edges(),
		Corpus:       c.corpus.Len(),
		Workers:      cfg.Workers,
		Suppressed:   c.crashes.suppressedCount(),
		ConcolicRuns: int(c.concolicRuns.Load()),
		SolvedSeeds:  int(c.solvedSeeds.Load()),
	}
	if ns := c.firstCrashNS.Load(); ns > 0 {
		res.TimeToFirstCrash = time.Duration(ns)
	}
	for _, w := range workers {
		if w.elapsed > res.VirtTime {
			res.VirtTime = w.elapsed
		}
		res.ResetTime += w.resetTime
		if w.rig.Target != nil {
			ts := w.rig.Target.Stats()
			res.HWSnapshotBytes += ts.SnapshotBytes
			res.HWRestores += ts.Restores
			res.DeltaRestores += ts.DeltaRestores
			ms := w.rig.Snaps.Stats()
			res.RestoresSkipped += ms.RestoresSkipped
			res.SavesSkipped += ms.SavesSkipped
		}
	}
	if secs := res.VirtTime.Seconds(); secs > 0 {
		res.ExecsPerVirtSecond = float64(res.Execs) / secs
	}

	if cfg.CorpusDir != "" {
		if err := SaveCorpusDir(cfg.CorpusDir, c.corpus.Entries(), res.Crashes); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// emitStats writes the live status line (rate-limited by statsEvery
// at the call sites).
func (c *campaign) emitStats(w *worker) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	execs := c.execs.Load()
	var eps float64
	if secs := (w.rig.Clock.Now() - w.start).Seconds(); secs > 0 {
		eps = float64(execs) / secs
	}
	fmt.Fprintf(c.cfg.Stats, "fuzz: execs=%d edges=%d corpus=%d crashes=%d solved=%d execs/vsec=%.0f\n",
		execs, c.global.Edges(), c.corpus.Len(), c.crashes.bucketCount(), c.solvedSeeds.Load(), eps)
}
