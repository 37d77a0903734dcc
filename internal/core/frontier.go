// Frontier decomposition: the outcome of the deterministic seed phase
// and the one place a subtree is executed from. Frontier.Run (see
// parallel.go) schedules the fan-out seeds this file produces over
// whatever worker slots it is given; a local parallel run passes
// LocalSlots, the distributed driver in internal/dist passes slots
// that forward a seed index to a remote node, which answers it with
// Frontier.RunSubtree on a frontier of its own.
//
// That works because of one load-bearing property, established in
// PR 3 and exploited by PR 6's resume: the serial seed phase is a
// deterministic, cheap-to-re-run function of the job, and every
// subtree result is a pure function of its seed index. A remote node
// therefore never needs a serialized symbolic state (constraint-term
// DAGs are deliberately not wire-portable): it re-runs the seed phase
// itself, proves via FrontierID that it landed on byte-identical
// seeds — including the sha256 digests of the seed hardware
// snapshots, so the subtree handoff ships a digest, not state bytes —
// and then accepts bare subtree indexes as work items.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/solver"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

// Frontier is the outcome of the deterministic seed phase: the
// fan-out seeds plus the per-subtree budget remainders, ready to run
// subtrees on demand. The zero value is not usable; build one with
// Engine.Frontier. A Frontier is safe for concurrent RunSubtree calls
// (each acquires a private rig from an internal pool).
type Frontier struct {
	e            *Engine
	seeds        []*symexec.State
	seedMaxID    uint64
	budget       uint64
	vtBudget     time.Duration
	solverBudget uint64
	liveHW       target.State
	liveEdges    []bool
	start        time.Duration
	seedVT       time.Duration
	hdr          campaignHeader
	done         *Report

	// spawnMu serializes rig building: worker spawns go through the
	// primary target, which (remote clients especially) is not safe
	// for concurrent use.
	spawnMu sync.Mutex

	mu     sync.Mutex
	free   []*Rig
	rigSeq int
	closed bool
}

// Frontier runs the serial seed phase (phase 1 of a parallel run) and
// returns the resulting frontier decomposition. When the tree drains
// or a budget dies before the fan-out width is reached, the serial
// result IS the run's result: Done returns it and there are no seeds.
//
// The engine must be freshly set up (no prior Run); Config.Workers
// sets the fan-out width and the virtual-time merge schedule, exactly
// as in a local parallel run — a distributed driver keeps Workers at
// the job's value so an N-node run merges to the same report as a
// 1-node run.
func (e *Engine) Frontier(ctx context.Context) (*Frontier, error) {
	e.ctx = ctx
	if err := ctx.Err(); err != nil {
		return nil, ErrInterrupted
	}
	start := e.rig.Clock.Now()
	e.vtStart = start
	e.initActive()

	fanout := seedFanout(e.cfg.SeedFanout, e.cfg.Workers)
	if err := e.loop(func() bool { return len(e.active) >= fanout }); err != nil {
		return nil, err
	}
	// The header's run identity is known before the seeds are: a run
	// that ends inside the seed phase journals it too.
	f := &Frontier{e: e, start: start, hdr: campaignHeader{
		Fingerprint: e.cfg.runFingerprint(),
		Workers:     e.cfg.Workers,
	}}
	if len(e.active) == 0 || e.stats.Instructions >= e.cfg.MaxInstructions || e.budgetExhausted() {
		f.done = e.finalize(start)
		return f, nil
	}

	// Make every seed self-contained. The live hardware still belongs
	// to the last-scheduled state; in snapshotting modes its slot must
	// be synced before anyone else restores over the hardware.
	if e.rig.Target != nil && e.previous != nil &&
		(e.cfg.Mode == ModeHardSnap || e.cfg.Mode == ModeNaiveReboot) {
		if err := e.saveCurrent(e.previous); err != nil {
			return nil, fmt.Errorf("core: fan-out sync: %w", err)
		}
	}
	// Naive-shared has no per-state snapshots: capture the live state
	// once (an honest one-time transfer charge) and seed every worker
	// clone with it.
	if e.rig.Target != nil && e.cfg.Mode == ModeNaiveShared {
		var err error
		f.liveHW, err = e.rig.Target.Save()
		if err != nil {
			return nil, fmt.Errorf("core: fan-out save: %w", err)
		}
		f.liveEdges = e.rig.Router.IRQEdgeState()
	}

	f.seeds = e.active
	e.active = nil
	e.previous = nil
	f.budget = e.cfg.MaxInstructions - e.stats.Instructions
	f.seedMaxID = e.exec.NextID()
	f.seedVT = e.rig.Clock.Now() - start
	// Like the instruction budget, each subtree independently gets
	// what is left of the virtual-time and solver-query budgets after
	// the seed phase (budgetExhausted above guarantees both are
	// positive when capped).
	if e.cfg.MaxVirtualTime > 0 {
		f.vtBudget = e.cfg.MaxVirtualTime - f.seedVT
	}
	if e.cfg.MaxSolverQueries > 0 {
		f.solverBudget = e.cfg.MaxSolverQueries - uint64(e.exec.Solver.Stats.Queries)
	}
	f.hdr.Seeds = len(f.seeds)
	f.hdr.SeedsHash = seedsHash(f.seeds)
	f.hdr.SeedMaxID = f.seedMaxID
	f.hdr.SeedFinished = len(e.finished)
	f.hdr.SeedInstructions = e.stats.Instructions
	return f, nil
}

// Done returns the completed report when the run finished inside the
// seed phase (nil otherwise: the frontier has seeds to run).
func (f *Frontier) Done() *Report { return f.done }

// SolverCache exposes the run's shared memoized solver cache — the
// unit the distributed solver fabric replicates across nodes (see
// solver.Cache.DeltaSince / Import).
func (f *Frontier) SolverCache() *solver.Cache { return f.e.exec.Solver.Cache }

// Store exposes the run's content-addressed snapshot store. The
// distributed snapshot fabric resolves delta-frame chunk digests
// against it and adopts fetched bug records into it.
func (f *Frontier) Store() *snapshot.Store { return f.e.snaps }

// FrontierID identifies a frontier across processes: the run
// configuration fingerprint plus the full outcome of the
// deterministic seed phase, including the content digests of every
// seed's hardware snapshot. Two engines (say, a distributed driver
// and a remote node) that compute equal FrontierIDs from the same job
// hold byte-identical frontiers — seed states AND seed hardware — so
// subtree work can be handed off as a bare index with zero state
// bytes on the wire.
type FrontierID struct {
	Fingerprint      string   `json:"fingerprint"`
	Workers          int      `json:"workers"`
	Seeds            int      `json:"seeds"`
	SeedsHash        string   `json:"seedsHash"`
	SeedMaxID        uint64   `json:"seedMaxID"`
	SeedFinished     int      `json:"seedFinished"`
	SeedInstructions uint64   `json:"seedInstructions"`
	SeedSnapshots    []string `json:"seedSnapshots,omitempty"`
}

// ID returns the frontier's identity.
func (f *Frontier) ID() FrontierID {
	id := FrontierID{
		Fingerprint:      f.hdr.Fingerprint,
		Workers:          f.hdr.Workers,
		Seeds:            f.hdr.Seeds,
		SeedsHash:        f.hdr.SeedsHash,
		SeedMaxID:        f.hdr.SeedMaxID,
		SeedFinished:     f.hdr.SeedFinished,
		SeedInstructions: f.hdr.SeedInstructions,
	}
	if len(f.seeds) > 0 {
		id.SeedSnapshots = make([]string, len(f.seeds))
		for i, st := range f.seeds {
			if sid := snapshot.ID(st.HWSnapshot); sid != 0 {
				if d, ok := f.e.snaps.DigestOf(sid); ok {
					id.SeedSnapshots[i] = fmt.Sprintf("%x", d)
				}
			}
		}
	}
	return id
}

// Equal reports whether two frontier identities match exactly.
func (a FrontierID) Equal(b FrontierID) bool {
	if a.Fingerprint != b.Fingerprint || a.Workers != b.Workers ||
		a.Seeds != b.Seeds || a.SeedsHash != b.SeedsHash ||
		a.SeedMaxID != b.SeedMaxID || a.SeedFinished != b.SeedFinished ||
		a.SeedInstructions != b.SeedInstructions ||
		len(a.SeedSnapshots) != len(b.SeedSnapshots) {
		return false
	}
	for i := range a.SeedSnapshots {
		if a.SeedSnapshots[i] != b.SeedSnapshots[i] {
			return false
		}
	}
	return true
}

// Close releases the seeds' snapshot references. Call it once no more
// RunSubtree calls will start; results already produced stay valid.
func (f *Frontier) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	for _, st := range f.seeds {
		f.e.snaps.Release(snapshot.ID(st.HWSnapshot))
	}
}

// acquireRig pops a pooled rig or builds a fresh one. Rigs are
// returned by releaseRig only after a successful subtree; a rig whose
// subtree failed is discarded (its hardware state cannot be trusted).
func (f *Frontier) acquireRig() (*Rig, error) {
	f.mu.Lock()
	if n := len(f.free); n > 0 {
		rig := f.free[n-1]
		f.free = f.free[:n-1]
		f.mu.Unlock()
		return rig, nil
	}
	f.rigSeq++
	seq := f.rigSeq
	f.mu.Unlock()

	return f.spawnRig(fmt.Sprintf("-n%d", seq), seq)
}

// spawnRig clones the engine's rig for one worker, named after the
// primary vehicle plus suffix. A rig that saw its worker fail is
// never reused — replacement workers spawn a fresh one and re-seed
// from the content-addressed snapshots.
func (f *Frontier) spawnRig(suffix string, stream int) (*Rig, error) {
	name := ""
	if t := f.e.rig.Target; t != nil {
		name = t.Name() + suffix
	}
	f.spawnMu.Lock()
	defer f.spawnMu.Unlock()
	return f.e.rig.Spawn(name, stream)
}

func (f *Frontier) releaseRig(rig *Rig) {
	f.mu.Lock()
	f.free = append(f.free, rig)
	f.mu.Unlock()
}

// RunSubtree explores fan-out seed idx to completion on a pooled rig
// and returns its portable result. Safe for concurrent use; the
// result is a pure function of idx (see runSubtreeOn), so retries
// after failures are byte-identical.
func (f *Frontier) RunSubtree(ctx context.Context, idx int) (*SubtreeResult, error) {
	if idx < 0 || idx >= len(f.seeds) {
		return nil, fmt.Errorf("core: subtree index %d out of range [0,%d)", idx, len(f.seeds))
	}
	rig, err := f.acquireRig()
	if err != nil {
		return nil, err
	}
	res, err := f.runSubtreeOn(ctx, idx, rig, nil)
	if err != nil {
		return nil, err
	}
	f.releaseRig(rig)
	return &SubtreeResult{idx: idx, res: res}, nil
}

// runSubtreeOn explores one fan-out seed to completion on the given
// rig's private hardware and returns its contribution as deltas.
// Everything that shapes the outcome is derived from the subtree
// index — forked searcher stream, state-ID stripe, fault PRNG
// stream — never from the physical worker, claim order, attempt
// number or host, so a subtree's result is a pure function of the
// seed and recovery replays (local or on another node) are
// byte-identical.
func (f *Frontier) runSubtreeOn(wctx context.Context, idx int, rig *Rig, hook func() error) (*subtreeResult, error) {
	e := f.e
	// The attempt runs a verbatim clone of the seed bound to its own
	// snapshot reference: a failed attempt mutates and releases only
	// its copy, leaving the original pristine for the next attempt (or
	// for a concurrent attempt by a deposed zombie's replacement).
	src := f.seeds[idx]
	seed := src.Clone()
	if orig := snapshot.ID(src.HWSnapshot); orig != 0 {
		d, ok := e.snaps.DigestOf(orig)
		if !ok {
			return nil, fmt.Errorf("core: subtree %d: seed snapshot %d missing from store", idx, orig)
		}
		id, ok := e.snaps.Adopt(d)
		if !ok {
			return nil, fmt.Errorf("core: subtree %d: seed snapshot %d no longer live", idx, orig)
		}
		seed.HWSnapshot = symexec.SnapshotID(id)
	}
	wcfg := e.cfg
	wcfg.Workers = 1
	wcfg.MaxInstructions = f.budget
	wcfg.MaxVirtualTime = f.vtBudget
	wcfg.MaxSolverQueries = f.solverBudget
	wcfg.Searcher = symexec.ForkSearcher(e.cfg.Searcher, int64(idx))
	// The nested engine is a plain serial run: no journaling, no
	// resume, no chaos of its own (chaos arrives via the step hook).
	wcfg.JournalPath = ""
	wcfg.Resume = nil
	wcfg.Chaos = nil
	wexec := e.exec.Spawn(f.seedMaxID + uint64(idx+1)*subtreeIDStride)

	if rig.Target != nil {
		// Re-arm fault injection with a per-subtree stream so fault
		// sequences do not depend on which worker claimed the subtree.
		if sched, ok := e.rig.Target.FaultSchedule(); ok {
			rig.Target.InjectFaults(sched.Derive(idx))
		}
		// Subtree boundary: drop the rig's generation/anchor knowledge
		// so this subtree's first restore is a full one regardless of
		// what ran on the rig before — its snapshot traffic, and hence
		// its virtual time, stays a pure function of the subtree.
		rig.Snaps.Forget()
	}

	weng := New(wcfg, wexec, rig)
	if e.cfg.Mode == ModeRecordReplay && e.rig.Target != nil {
		weng.seedIOLog(seed.ID, e.ioLogs[seed.ID])
	}
	if e.cfg.Mode == ModeNaiveShared && rig.Target != nil {
		// Every subtree starts from the fan-out live state, mimicking
		// "everyone shares the hardware as of the fork".
		if err := rig.Target.AdoptState(f.liveHW); err != nil {
			return nil, err
		}
		rig.Router.ResetIRQEdges(f.liveEdges)
	}
	weng.SetInitialState(seed)
	weng.stepHook = hook

	var beforeTgt target.Stats
	var beforeMan SnapManagerStats
	if rig.Target != nil {
		beforeTgt = rig.Target.Stats()
		beforeMan = rig.Snaps.Stats()
	}
	rep, err := weng.RunContext(wctx)
	if err != nil {
		return nil, err
	}
	res := &subtreeResult{rep: rep, vt: rep.VirtualTime, bugSnaps: weng.bugSnaps}
	if rig.Target != nil {
		res.tgt = subTargetStats(rig.Target.Stats(), beforeTgt)
		res.man = subManStats(rig.Snaps.Stats(), beforeMan)
	}
	return res, nil
}

// SubtreeResult is one completed subtree's portable contribution to
// the merge: finished paths (report-relevant projection only), timing
// and traffic deltas, and — under Config.KeepBugSnapshots — the
// retained hardware snapshots of buggy states. It round-trips through
// Encode/DecodeSubtreeResult (the same gob record the campaign
// journal uses), which is how it crosses the distributed wire.
type SubtreeResult struct {
	idx int
	res *subtreeResult
}

// Index is the subtree's seed index.
func (r *SubtreeResult) Index() int { return r.idx }

// VirtualTime is the subtree's virtual-time contribution.
func (r *SubtreeResult) VirtualTime() time.Duration { return r.res.vt }

// PathCount is the number of finished paths the subtree produced.
func (r *SubtreeResult) PathCount() int { return len(r.res.rep.Finished) }

// Encode serializes the result (gob, the campaign-journal record
// format). Bug snapshots, when present, are encoded inline.
func (r *SubtreeResult) Encode() ([]byte, error) {
	rec, err := newSubtreeRec(r.idx, r.res)
	if err != nil {
		return nil, err
	}
	return gobEncode(rec)
}

// DecodeSubtreeResult parses an Encode'd subtree result.
func DecodeSubtreeResult(data []byte) (*SubtreeResult, error) {
	var rec subtreeRec
	if err := gobDecode(data, &rec); err != nil {
		return nil, fmt.Errorf("core: subtree result: %w", err)
	}
	res, err := rec.result()
	if err != nil {
		return nil, err
	}
	return &SubtreeResult{idx: rec.Idx, res: res}, nil
}

// TakeBugSnapshots detaches and returns the retained bug snapshots
// keyed by state ID (nil when none). The distributed fabric uses this
// on the node side: the snapshots stay in the node's content-addressed
// cache, the wire carries their digests, and the driver re-attaches
// fetched records with PutBugSnapshot.
func (r *SubtreeResult) TakeBugSnapshots() map[uint64]*snapshot.Record {
	m := r.res.bugSnaps
	r.res.bugSnaps = nil
	return m
}

// PutBugSnapshot re-attaches a bug snapshot (fetched from the fabric)
// to the result before merging.
func (r *SubtreeResult) PutBugSnapshot(stateID uint64, rec *snapshot.Record) {
	if r.res.bugSnaps == nil {
		r.res.bugSnaps = make(map[uint64]*snapshot.Record)
	}
	r.res.bugSnaps[stateID] = rec
}
