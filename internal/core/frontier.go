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
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"hardsnap/internal/expr"
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

// Equal reports whether two frontier identities match exactly, field
// for field: whether they write the same journal header.
func (a FrontierID) Equal(b FrontierID) bool {
	return bytes.Equal(appendFrontierID(nil, a), appendFrontierID(nil, b))
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

// Encode serializes the result in the snapshot codec idiom: index(4),
// the tally's counters at 8 bytes each (so a record's length does not
// depend on what it counted), the paths, then the bug snapshots by
// ascending state ID, each ID(8) and a record in snapshot.Encode form.
func (r *SubtreeResult) Encode() []byte {
	b := snapshot.AppendU32(make([]byte, 0, 512), r.Index)
	for _, c := range r.Report.counters() {
		b = snapshot.AppendU64(b, load(c))
	}
	b = snapshot.AppendU32(b, len(r.Report.Finished))
	for _, st := range r.Report.Finished {
		b = appendPath(b, st)
	}
	ids := make([]uint64, 0, len(r.BugSnaps))
	for id := range r.BugSnaps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b = snapshot.AppendU32(b, len(ids))
	for _, id := range ids {
		rec, _ := snapshot.Encode(r.BugSnaps[id])
		b = append(snapshot.AppendU32(snapshot.AppendU64(b, id), len(rec)), rec...)
	}
	return b
}

// DecodeSubtreeResult parses an Encode'd subtree result. Every byte
// string it accepts is the one Encode gives for the result: bug
// snapshot IDs must ascend, and trailing bytes are refused.
func DecodeSubtreeResult(data []byte) (*SubtreeResult, error) {
	r := snapshot.NewReader(data)
	res := &SubtreeResult{Index: int(r.U32()), Report: &Report{}}
	for _, c := range res.Report.counters() {
		store(c, r.U64())
	}
	res.Report.Finished = snapshot.List(r, minPathLen, func() *symexec.State { return readPath(r) })
	res.BugSnaps = make(map[uint64]*snapshot.Record)
	var id uint64
	for i := range r.Count(8 + 4) {
		prev := id
		if id = r.U64(); i > 0 && id <= prev {
			r.Fail("bug snapshot %d out of order", id)
		}
		rec, err := snapshot.Decode(r.Chunk())
		if err != nil {
			r.Fail("bug snapshot %d: %v", id, err)
		}
		res.BugSnaps[id] = rec
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("core: subtree result: %w", err)
	}
	return res, nil
}

// minPathLen is the fewest bytes appendPath writes: one-byte ID,
// parent, PC, status and steps, then four empty lengths.
const minPathLen = 5 + 4*4

// appendPath writes what the report, the bug listing and the identity
// fingerprint read of a finished path: ID parent pc status(1) steps
// console, the model in name order, the symbolic inputs and the error
// text. Its numbers are uvarints: unlike counters they are a pure
// function of the subtree, and they are most of a record's bytes.
func appendPath(b []byte, st *symexec.State) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, st.ID), st.Parent), uint64(st.PC))
	b = binary.AppendUvarint(append(b, byte(st.Status)), st.Steps)
	b = append(snapshot.AppendU32(b, len(st.Console)), st.Console...)
	names := snapshot.SortedNames(st.Model)
	b = snapshot.AppendU32(b, len(names))
	for _, name := range names {
		b = binary.AppendUvarint(snapshot.AppendName(b, name), st.Model[name])
	}
	b = snapshot.AppendU32(b, len(st.SymInputs))
	for _, in := range st.SymInputs {
		b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, uint64(in.Tag)), uint64(in.Addr)), uint64(in.Len))
	}
	msg := ""
	if st.Err != nil {
		msg = st.Err.Error()
	}
	return snapshot.AppendName(b, msg)
}

// readPath reads what appendPath wrote. A model whose names do not
// strictly ascend is refused, so no two encodings give one path, and
// so is a status a finished path cannot hold.
func readPath(r *snapshot.Reader) *symexec.State {
	u64 := func() uint64 { return r.Uvarint(math.MaxUint64) }
	u32 := func() uint32 { return uint32(r.Uvarint(math.MaxUint32)) }
	st := &symexec.State{ID: u64(), Parent: u64(), PC: u32(), Status: symexec.Status(r.U8())}
	if st.Status < symexec.StatusHalted || st.Status > symexec.StatusBudget {
		r.Fail("path %d in status %d, not a finished one", st.ID, st.Status)
	}
	st.Steps, st.Console = u64(), append([]byte(nil), r.Chunk()...)
	if n := r.Count(4 + 1); n > 0 {
		st.Model = make(expr.Assignment, n)
		name := ""
		for i := range n {
			name = r.Ascending(i, name)
			st.Model[name] = u64()
		}
	}
	st.SymInputs = snapshot.List(r, 3, func() symexec.SymInput { return symexec.SymInput{Tag: u32(), Addr: u32(), Len: u32()} })
	if msg := r.Name(); msg != "" {
		st.Err = errors.New(msg)
	}
	return st
}
