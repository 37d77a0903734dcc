package fuzz

import (
	"fmt"
	"math/rand"
	"time"

	"hardsnap/internal/core"
	"hardsnap/internal/isa"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
	"hardsnap/internal/vm"
	"hardsnap/internal/vtime"
)

// interestingBytes are the classic boundary-ish mutation values
// (package-level so the mutator allocates nothing per exec).
var interestingBytes = [...]byte{0x00, 0xFF, 0x7F, 0x80, 0x41, 0x0A}

// branchSite is one statically-decoded conditional branch, tracked
// per worker for frontier detection: a site whose far side stays
// uncovered after frontierK executions that reach it becomes a
// concolic candidate.
type branchSite struct {
	pc      uint32
	takenPC uint32
	fallPC  uint32

	seenTaken bool
	seenFall  bool
	// hits counts executions that reached the site while it was
	// one-sided; lastHit dedups multiple hits within one execution.
	hits    int
	lastHit int
	// repr is a preallocated copy of an input that reached the site.
	repr    []byte
	hasRepr bool
	// attempted marks sites the concolic loop already escalated (one
	// shot per side combination; reset when a new side is covered).
	attempted bool
}

// hitListCap bounds the per-exec distinct-branch-site list; execs
// touching more sites simply don't frontier-track the excess that
// exec (a heuristic, not a correctness surface).
const hitListCap = 256

// worker is one parallel fuzzing loop over a private target and CPU.
// Its executions run on the rig's concrete loop (core.Rig.RunConcrete)
// with afterStep as the per-instruction hook, bound once in stepped;
// the hot loop performs no allocations.
type worker struct {
	id  int
	c   *campaign
	cfg *Config
	rng *rand.Rand

	cpu *vm.CPU
	// rig is the worker's private machine (core.NewRig); its Target
	// is nil for software-only firmware.
	rig *core.Rig

	// cov is the per-exec coverage bitmap (64 KiB, allocated once
	// with the worker).
	cov Bitmap
	// seen holds the global map's bits this worker knows of; afterExec
	// merges into the global map only an exec that lit a bit beyond it.
	seen seenMap

	// input is the current test case; scratch is reused by corpus
	// picks. Both are preallocated at InputLen.
	input   []byte
	scratch []byte

	// execSeq numbers this worker's executions (for lastHit dedup).
	execSeq int
	// irqsThisExec counts interrupts delivered in the current exec
	// (concolic replay can't model async IRQs, so recordings with
	// interrupts are skipped).
	irqsThisExec int
	// stepped is afterStep as a method value, made once: one made per
	// exec would allocate.
	stepped func(pc uint32) bool

	// Snapshot-based reset state.
	cpuSnap *vm.Snapshot
	hwSnap  snapshot.ID
	powerOn snapshot.ID

	// Frontier tracking (hybrid mode only; nil otherwise).
	sites     []branchSite
	branchIdx []int32
	hitList   [hitListCap]int32
	nHit      int

	// pendingSeeds holds solver-produced inputs awaiting execution.
	pendingSeeds [][]byte
	curSolved    bool // current input came from the solver
	symex        *symexec.Executor

	start     time.Duration
	elapsed   time.Duration
	resetTime time.Duration
}

func newWorker(id int, c *campaign) (*worker, error) {
	cfg := &c.cfg
	rig, err := core.NewRig("fuzz", &core.SetupConfig{Peripherals: cfg.Peripherals, FPGA: cfg.FPGA}, c.store)
	if err != nil {
		return nil, err
	}
	cpu := rig.NewCPU(vm.Config{})
	if err := cpu.Load(cfg.Program); err != nil {
		return nil, err
	}

	w := &worker{
		id:      id,
		c:       c,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(id)*0x9E3779B9)),
		cpu:     cpu,
		rig:     rig,
		input:   make([]byte, cfg.InputLen),
		scratch: make([]byte, cfg.InputLen),
	}
	w.stepped = w.afterStep
	if cfg.Hybrid {
		w.decodeBranchSites()
	}

	// The ecall hook feeds inputs and captures the snapshot point.
	cpu.OnEcall = func(cp *vm.CPU, service int32) bool {
		switch service {
		case isa.EcallMakeSymbolic:
			cp.FillInput(w.input)
			return true
		case isa.EcallSnapshotHint:
			if cfg.Reset == ResetSnapshot && w.cpuSnap == nil {
				w.captureSnapshot()
			}
			return true
		}
		return false
	}
	return w, nil
}

// decodeBranchSites statically scans the program image for
// conditional branches, building the pc-indexed side table the hot
// loop consults without hashing or allocation.
func (w *worker) decodeBranchSites() {
	code := isa.DecodeProgram(w.cfg.Program.Base, w.cfg.Program.Code)
	w.branchIdx = make([]int32, len(code.Entries))
	for i, e := range code.Entries {
		in := e.Inst
		w.branchIdx[i] = -1
		switch in.Op { // a data word decodes to an invalid Op
		case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
			pc := code.Base + uint32(4*i)
			w.branchIdx[i] = int32(len(w.sites))
			w.sites = append(w.sites, branchSite{
				pc:      pc,
				takenPC: pc + uint32(in.Imm),
				fallPC:  pc + 4,
				lastHit: -1,
				repr:    make([]byte, w.cfg.InputLen),
			})
		}
	}
}

// run executes this worker's share of the campaign.
func (w *worker) run(quota int) error {
	if w.rig.Target != nil {
		var err error
		w.powerOn, err = w.rig.Snaps.Capture()
		if err != nil {
			return err
		}
	}

	// Seed corpus (workers race to admit the same seeds; signature
	// dedup keeps exactly one copy of each behavior).
	if err := w.runSeeds(); err != nil {
		return err
	}

	w.start = w.rig.Clock.Now()
	for i := 0; i < quota; i++ {
		if err := w.fuzzOne(); err != nil {
			return err
		}
	}
	w.elapsed = w.rig.Clock.Now() - w.start
	return nil
}

// runSeeds executes the zero input plus configured seeds so their
// coverage primes the corpus (executing them keeps admission uniform:
// every entry is keyed by the coverage signature it earned).
func (w *worker) runSeeds() error {
	seeds := make([][]byte, 0, 1+len(w.cfg.Seeds))
	seeds = append(seeds, make([]byte, w.cfg.InputLen))
	seeds = append(seeds, w.cfg.Seeds...)
	for _, s := range seeds {
		if err := w.reset(); err != nil {
			return err
		}
		w.setInput(s)
		stop, pc, err := w.execOne()
		if err != nil {
			return err
		}
		w.afterExec(stop, pc, true)
	}
	return nil
}

func (w *worker) setInput(src []byte) {
	n := copy(w.input, src)
	for i := n; i < len(w.input); i++ {
		w.input[i] = 0
	}
}

// fuzzOne runs one fuzzing iteration: reset, pick+mutate (or take a
// solver seed), execute, process coverage/crash/frontier.
func (w *worker) fuzzOne() error {
	if err := w.reset(); err != nil {
		return err
	}

	w.curSolved = false
	if n := len(w.pendingSeeds); n > 0 {
		w.setInput(w.pendingSeeds[n-1])
		w.pendingSeeds = w.pendingSeeds[:n-1]
		w.curSolved = true
	} else {
		for i := range w.scratch {
			w.scratch[i] = 0
		}
		w.c.corpus.PickInto(w.rng, w.scratch)
		w.setInput(w.scratch)
		w.mutate()
	}

	stop, pc, err := w.execOne()
	if err != nil {
		return err
	}
	execIdx := int(w.c.execs.Add(1)) - 1
	w.afterExec(stop, pc, false)

	if w.cfg.Stats != nil && (execIdx+1)%statsEvery == 0 {
		w.c.emitStats(w)
	}
	return nil
}

// afterExec merges coverage, admits the input, records crashes, and
// (in hybrid mode) updates frontier state. seeding suppresses exec
// accounting for the corpus-priming pass.
func (w *worker) afterExec(stop vm.StopReason, pc uint32, seeding bool) {
	switch stop {
	case vm.StopAbort, vm.StopAssertFail, vm.StopFault:
		exec := int(w.c.execs.Load())
		if w.c.crashes.record(w.input, stop, pc, exec) {
			w.c.noteFirstCrash(w.rig.Clock.Now() - w.start)
		}
	}

	if w.seen.merge(w.c.global, &w.cov) || seeding {
		// Admission is rare; allocating the corpus copy and sorting
		// for the signature here is off the hot path by construction.
		w.c.corpus.Add(w.input, w.cov.Signature(), w.curSolved)
	}

	if w.cfg.Hybrid && !seeding {
		w.updateFrontier()
	}
	w.cov.Reset()
	w.nHit = 0
}

// reset restores the inter-execution state per the strategy.
func (w *worker) reset() error {
	before := w.rig.Clock.Now()
	defer func() { w.resetTime += w.rig.Clock.Now() - before }()

	switch w.cfg.Reset {
	case ResetNone:
		// Even "no reset" must get the CPU running again; memory and
		// hardware keep their polluted state.
		w.cpu.Stop = vm.StopNone
		w.cpu.Fault = nil
		w.cpu.PC = w.cfg.Program.Entry
		return nil

	case ResetReboot:
		w.cpu.Reset()
		if err := w.cpu.Load(w.cfg.Program); err != nil {
			return err
		}
		if w.rig.Target != nil {
			if err := w.rig.Snaps.Restore(w.powerOn); err != nil {
				return err
			}
		}
		w.rig.Clock.Advance(vtime.RebootTime)
		return nil

	case ResetSnapshot:
		if w.cpuSnap == nil {
			// First execution: run until the snapshot hint (or entry).
			w.cpu.Reset()
			if err := w.cpu.Load(w.cfg.Program); err != nil {
				return err
			}
			return nil
		}
		w.cpu.RestoreSnapshot(w.cpuSnap)
		if w.rig.Target != nil && w.hwSnap != 0 {
			if err := w.rig.Snaps.Restore(w.hwSnap); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("fuzz: unknown reset strategy %d", w.cfg.Reset)
}

func (w *worker) captureSnapshot() {
	w.cpuSnap = w.cpu.Snapshot()
	if w.rig.Target != nil {
		if id, err := w.rig.Snaps.Capture(); err == nil {
			w.hwSnap = id
		}
	}
}

// execOne runs one test case to completion on the rig's concrete
// loop, charging VM instruction time. Per-exec bookkeeping is deferred
// to afterExec; the per-step hook was bound when the worker was built,
// so an exec allocates nothing.
func (w *worker) execOne() (stop vm.StopReason, crashPC uint32, err error) {
	w.execSeq++
	steps, irqs, err := w.rig.RunConcrete(w.cpu, w.cfg.MaxStepsPerExec, vtime.VMInstruction, w.stepped)
	if err != nil {
		return 0, 0, err
	}
	w.irqsThisExec = irqs
	if steps >= w.cfg.MaxStepsPerExec && w.cpu.Stop == vm.StopNone {
		w.cpu.Stop = vm.StopBudget
	}
	return w.cpu.Stop, w.cpu.PC, nil
}

// afterStep is the worker's per-instruction hook on the rig loop: it
// records the edge to the CPU's new PC and, in hybrid mode, notes the
// branch site the instruction at pc decided. It never ends the run.
func (w *worker) afterStep(pc uint32) bool {
	w.cov.Edge(w.cpu.PC)
	if w.branchIdx != nil {
		if off := (pc - w.cfg.Program.Base) >> 2; off < uint32(len(w.branchIdx)) {
			if si := w.branchIdx[off]; si >= 0 {
				w.noteBranch(si)
			}
		}
	}
	return true
}

// noteBranch updates a branch site after the instruction at its PC
// executed; cpu.PC now holds the successor.
func (w *worker) noteBranch(si int32) {
	s := &w.sites[si]
	switch w.cpu.PC {
	case s.takenPC:
		if !s.seenTaken {
			s.seenTaken = true
			s.hits = 0
			s.attempted = false
		}
	case s.fallPC:
		if !s.seenFall {
			s.seenFall = true
			s.hits = 0
			s.attempted = false
		}
	default:
		return // interrupted mid-branch; attribute nothing
	}
	if s.lastHit != w.execSeq && w.nHit < hitListCap {
		s.lastHit = w.execSeq
		w.hitList[w.nHit] = si
		w.nHit++
	}
}

// mutate applies 1-3 of the classic mutation arms to w.input in
// place, allocation-free.
func (w *worker) mutate() {
	out := w.input
	n := 1 + w.rng.Intn(3)
	for i := 0; i < n; i++ {
		switch w.rng.Intn(4) {
		case 0: // bit flip
			if len(out) > 0 {
				idx := w.rng.Intn(len(out))
				out[idx] ^= 1 << uint(w.rng.Intn(8))
			}
		case 1: // random byte
			if len(out) > 0 {
				out[w.rng.Intn(len(out))] = byte(w.rng.Intn(256))
			}
		case 2: // interesting values
			if len(out) > 0 {
				out[w.rng.Intn(len(out))] = interestingBytes[w.rng.Intn(len(interestingBytes))]
			}
		case 3: // byte copy within input
			if len(out) > 1 {
				out[w.rng.Intn(len(out))] = out[w.rng.Intn(len(out))]
			}
		}
	}
}
