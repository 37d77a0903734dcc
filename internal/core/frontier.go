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
	"sort"
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
	seedVT       time.Duration
	id           FrontierID
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
	// The run half of the identity is known before the seeds are: a
	// run that ends inside the seed phase journals it too.
	f := &Frontier{e: e, id: FrontierID{
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
	f.id.Seeds = len(f.seeds)
	f.id.SeedsHash = seedsHash(f.seeds)
	f.id.SeedMaxID = f.seedMaxID
	f.id.SeedFinished = len(e.finished)
	f.id.SeedInstructions = e.stats.Instructions
	f.id.SeedSnapshots = make([]string, len(f.seeds))
	for i, st := range f.seeds {
		if sid := snapshot.ID(st.HWSnapshot); sid != 0 {
			if d, ok := e.snaps.DigestOf(sid); ok {
				f.id.SeedSnapshots[i] = fmt.Sprintf("%x", d)
			}
		}
	}
	return f, nil
}

// Done returns the completed report when the run finished inside the
// seed phase (nil otherwise: the frontier has seeds to run).
func (f *Frontier) Done() *Report { return f.done }

// FrontierID identifies a frontier across processes: the run
// configuration fingerprint plus the full outcome of the
// deterministic seed phase, including the content digests of every
// seed's hardware snapshot. Two engines (say, a distributed driver
// and a remote node) that compute equal FrontierIDs from the same job
// hold byte-identical frontiers — seed states AND seed hardware — so
// subtree work can be handed off as a bare index with zero state
// bytes on the wire. It is also the campaign journal's header record:
// a resume proves with the same Equal that it re-ran into the campaign
// it is about to continue.
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
func (f *Frontier) ID() FrontierID { return f.id }

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

	return f.spawnRig(fmt.Sprintf("-n%d", seq))
}

// spawnRig clones the engine's rig for one worker, named after the
// primary vehicle plus suffix. A rig that saw its worker fail is
// never reused — replacement workers spawn a fresh one and re-seed
// from the content-addressed snapshots.
func (f *Frontier) spawnRig(suffix string) (*Rig, error) {
	name := ""
	if t := f.e.rig.Target; t != nil {
		name = t.Name() + suffix
	}
	f.spawnMu.Lock()
	defer f.spawnMu.Unlock()
	return f.e.rig.Spawn(name)
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
	return res, nil
}

// runSubtreeOn explores one fan-out seed to completion on the given
// rig's private hardware and returns its own contribution.
// Everything that shapes the outcome is derived from the subtree
// index — forked searcher stream, state-ID stripe — never from the
// physical worker, claim order, attempt number or host, so a subtree's
// result is a pure function of the seed and recovery replays (local or
// on another node) are byte-identical.
func (f *Frontier) runSubtreeOn(wctx context.Context, idx int, rig *Rig, hook func() error) (*SubtreeResult, error) {
	e := f.e
	// The attempt runs a verbatim clone of the seed bound to its own
	// snapshot reference: a failed attempt mutates and releases only
	// its copy, leaving the original pristine for the next attempt.
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

	// The rig's counters carry every subtree it ran before: the report
	// counts this one's traffic from here.
	weng.trafficBase = weng.traffic()
	rep, err := weng.RunContext(wctx)
	if err != nil {
		return nil, err
	}
	// The store and the solver cache are the whole run's, so a reading
	// taken mid-run depends on what other workers did meanwhile: not a
	// function of the subtree, and the merge reads both once at the end.
	rep.Snapshots.Store, rep.SolverCache = snapshot.Stats{}, solver.CacheStats{}
	return &SubtreeResult{Index: idx, Report: rep, BugSnaps: weng.bugSnaps}, nil
}

// SubtreeResult is one completed subtree's contribution to the merge:
// its own Report and — under Config.KeepBugSnapshots — the retained
// hardware snapshots of buggy states, keyed by state ID. Encode is its
// one byte form, whichever executor ran the subtree: the journal
// stores it and a dist node answers with it.
type SubtreeResult struct {
	// Index is the subtree's seed index.
	Index    int
	Report   *Report
	BugSnaps map[uint64]*snapshot.Record
}

// subtreeWire is SubtreeResult's gob form, the campaign journal's
// subtree record and a dist node's run answer: the report's tally
// as it is, its paths in their portable projection, bug snapshots in
// the snapshot record byte form and in state-ID order (a slice for the
// reasons modelVar gives).
type subtreeWire struct {
	Index    int
	Tally    Tally
	Paths    []portablePath
	BugSnaps []bugSnapWire
}

type bugSnapWire struct {
	State  uint64
	Record []byte
}

// Encode serializes the result.
func (r *SubtreeResult) Encode() ([]byte, error) {
	w := subtreeWire{Index: r.Index, Tally: r.Report.Tally}
	w.Paths = make([]portablePath, len(r.Report.Finished))
	for i, st := range r.Report.Finished {
		w.Paths[i] = toPortable(st)
	}
	for id, snap := range r.BugSnaps {
		data, err := snapshot.Encode(snap)
		if err != nil {
			return nil, fmt.Errorf("core: subtree %d: bug snapshot %d: %w", r.Index, id, err)
		}
		w.BugSnaps = append(w.BugSnaps, bugSnapWire{id, data})
	}
	sort.Slice(w.BugSnaps, func(i, j int) bool { return w.BugSnaps[i].State < w.BugSnaps[j].State })
	return gobEncode(w)
}

// DecodeSubtreeResult parses an Encode'd subtree result.
func DecodeSubtreeResult(data []byte) (*SubtreeResult, error) {
	var w subtreeWire
	if err := gobDecode(data, &w); err != nil {
		return nil, fmt.Errorf("core: subtree result: %w", err)
	}
	r := &SubtreeResult{
		Index:    w.Index,
		Report:   &Report{Tally: w.Tally, Finished: make([]*symexec.State, len(w.Paths))},
		BugSnaps: make(map[uint64]*snapshot.Record, len(w.BugSnaps)),
	}
	for i, p := range w.Paths {
		r.Report.Finished[i] = p.state()
	}
	for _, b := range w.BugSnaps {
		snap, err := snapshot.Decode(b.Record)
		if err != nil {
			return nil, fmt.Errorf("core: subtree %d: bug snapshot %d: %w", w.Index, b.State, err)
		}
		r.BugSnaps[b.State] = snap
	}
	return r, nil
}
