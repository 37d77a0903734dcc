package main

import (
	"errors"
	"path/filepath"
	"sort"
	"time"

	"hardsnap/internal/asm"
	"hardsnap/internal/bus"
	"hardsnap/internal/core"
	"hardsnap/internal/fuzz"
	"hardsnap/internal/isa"
	"hardsnap/internal/journal"
	"hardsnap/internal/periph"
	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vm"
	"hardsnap/internal/vtime"
)

// Probes time a layer's public functions directly, in the traced rep
// after the timed call, with inputs captured from that very run (its
// firmware and corpus, records saved from its target, its hardware
// transcript, its mean journal record size), so a probe's ns per call
// multiplies against the run's own counters.

// probeSamples is how many timed samples each probe takes; the
// reported figure is their median.
const probeSamples = 1000

// probeNS times fn: per sample, prep runs untimed (nil = nothing),
// then fn runs inner times under the clock. It returns the median ns
// per fn call. inner > 1 is for calls too short for one clock read.
func probeNS(samples, inner int, prep, fn func()) float64 {
	ds := make([]float64, samples)
	for i := range ds {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			fn()
		}
		ds[i] = float64(time.Since(t0)) / float64(inner)
	}
	sort.Float64s(ds)
	return median(ds)
}

// ---- bus ---------------------------------------------------------------

type stubPort struct{}

func (stubPort) ReadReg(uint32) (uint32, error) { return 0, nil }
func (stubPort) WriteReg(uint32, uint32) error  { return nil }
func (stubPort) IRQLevel() (bool, error)        { return false, nil }

// probeBus times address decode and dispatch alone: a Router over a
// port that does nothing.
func probeBus(m map[string]float64) error {
	const base = 0x40000000
	r, err := bus.NewRouter([]bus.Region{{Name: "stub", Base: base, Size: core.PeriphRegionSize, Port: stubPort{}}})
	if err != nil {
		return err
	}
	m["bus.route_ns"] = probeNS(probeSamples, 64, nil, func() {
		_, _ = r.ReadMMIO(base+4, 4)
		_ = r.WriteMMIO(base+8, 4, 1)
	}) / 2
	return nil
}

// ---- periph, sim -------------------------------------------------------

// busCycle applies one register-port transaction or clock advance to
// a bare simulator, the way internal/target drives its peripherals.
func busCycle(s *sim.Simulator, op busOp) error {
	if op.advance > 0 {
		return s.Run(op.advance)
	}
	wen := uint64(0)
	if op.write {
		wen = 1
	}
	for _, in := range []struct {
		name string
		val  uint64
	}{{bus.SigSel, 1}, {bus.SigWen, wen}, {bus.SigAddr, uint64(op.offset)}, {bus.SigWData, uint64(op.value)}} {
		if err := s.SetInput(in.name, in.val); err != nil {
			return err
		}
	}
	if err := s.StepCycle(); err != nil {
		return err
	}
	if err := s.SetInput(bus.SigSel, 0); err != nil {
		return err
	}
	if err := s.SetInput(bus.SigWen, 0); err != nil {
		return err
	}
	return s.EvalComb()
}

// probeSim builds the workload's peripheral the way its target does
// (timing parse + instrument + elaborate and the simulator compile),
// then replays the workload's recorded hardware transcript on the
// bare simulator for sim.cycle_ns and the engine's activation counts,
// and times snapshot, full restore and dirty restore around it.
func probeSim(pc target.PeriphConfig, instrument bool, transcript []busOp, m map[string]float64) error {
	t0 := time.Now()
	design, _, err := periph.Build(pc.Periph, pc.Params, instrument)
	if err != nil {
		return err
	}
	m["periph.build_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	s, err := sim.New(design)
	if err != nil {
		return err
	}
	m["sim.compile_ms"] = float64(time.Since(t0)) / 1e6
	if len(transcript) == 0 {
		return nil
	}

	var replayErr error
	replay := func(ops []busOp) {
		for _, op := range ops {
			if err := busCycle(s, op); err != nil && replayErr == nil {
				replayErr = err
			}
		}
	}
	var cycles uint64
	for _, op := range transcript {
		cycles += max(op.advance, 1)
	}
	before, _ := s.EngineStats()
	passes := 1 + probeSamples/len(transcript)
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		replay(transcript)
	}
	elapsed := time.Since(t0)
	after, compiled := s.EngineStats()
	total := float64(cycles) * float64(passes)
	m["sim.cycle_ns"] = float64(elapsed) / total
	if compiled {
		m["sim.comb_runs_per_cycle"] = float64(after.CombRuns-before.CombRuns) / total
		m["sim.seq_runs_per_cycle"] = float64(after.SeqRuns-before.SeqRuns) / total
	}

	// Restores go back to an anchor across a short burst of the
	// workload's own operations, like a context switch does.
	burst := transcript[:min(len(transcript), 16)]
	anchor := s.Snapshot()
	m["sim.snapshot_ns"] = probeNS(probeSamples, 1, nil, func() { _ = s.Snapshot() })
	m["sim.restore_ns"] = probeNS(probeSamples, 1, func() { replay(burst) }, func() {
		if err := s.Restore(anchor); err != nil && replayErr == nil {
			replayErr = err
		}
	})
	s.ClearDirty()
	m["sim.restore_dirty_ns"] = probeNS(probeSamples, 1, func() { replay(burst) }, func() {
		if _, err := s.RestoreDirty(anchor); err != nil && replayErr == nil {
			replayErr = err
		}
	})
	return replayErr
}

// ---- snapshot ----------------------------------------------------------

// probeSnapshot times the store and the codec on records saved from
// the workload's own target: between saves one register write makes
// each record distinct, so Put takes the miss path (digest, clone,
// intern) the write-heavy workloads pay.
func probeSnapshot(tgt target.Interface, periphName string, m map[string]float64) error {
	port, err := tgt.Port(periphName)
	if err != nil {
		return err
	}
	const distinct = 8
	recs := make([]snapshot.Record, distinct)
	for i := range recs {
		if err := port.WriteReg(0, uint32(0x51+i)); err != nil {
			return err
		}
		st, err := tgt.Save()
		if err != nil {
			return err
		}
		recs[i] = snapshot.Record{HW: st, IRQEdges: []bool{false}}
	}
	var store *snapshot.Store
	i := 0
	m["snapshot.put_ns"] = probeNS(probeSamples, 1, func() {
		if i%distinct == 0 {
			store = snapshot.NewStore()
		}
	}, func() {
		store.Put(recs[i%distinct])
		i++
	})
	id := store.Put(recs[0])
	m["snapshot.get_ns"] = probeNS(probeSamples, 1, nil, func() { _, _ = store.Get(id) })

	data, err := snapshot.Encode(&recs[0])
	if err != nil {
		return err
	}
	m["snapshot.encode_ns"] = probeNS(probeSamples, 1, nil, func() { _, _ = snapshot.Encode(&recs[0]) })
	var decodeErr error
	m["snapshot.decode_ns"] = probeNS(probeSamples, 1, nil, func() {
		if _, err := snapshot.Decode(data); err != nil {
			decodeErr = err
		}
	})
	return decodeErr
}

// ---- fuzz twin: vm, and target spans for fuzz-hw -----------------------

// fuzzTwin is one fuzz execution rebuilt from the layers' public API
// (fuzz.Run builds its own target and keeps its worker private): load
// the firmware, run to its snapshot hint, then per exec restore the
// CPU snapshot (and the hardware's), feed an input and Step to the
// end, with Advance(1) per instruction when there is hardware. No
// mutation, no coverage. It is what lets vm.CPU.RestoreSnapshot and
// Step be timed on the workload's firmware and corpus, and a decorated
// target sit under the same instruction stream.
type fuzzTwin struct {
	cpu     *vm.CPU
	tgt     target.Interface // nil: the vm alone
	snapman *core.SnapshotManager
	cpuSnap *vm.Snapshot
	hwSnap  snapshot.ID
	input   []byte
	instrs  uint64
}

// idleMMIO answers the vm-alone twin of a firmware that has hardware:
// every register reads 0 (never busy), writes are dropped.
type idleMMIO struct{}

func (idleMMIO) ReadMMIO(uint32, int) (uint32, error) { return 0, nil }
func (idleMMIO) WriteMMIO(uint32, int, uint32) error  { return nil }

func newFuzzTwin(cfg fuzz.Config, tgt target.Interface) (*fuzzTwin, error) {
	t := &fuzzTwin{cpu: vm.New(vm.Config{}, nil), tgt: tgt}
	switch {
	case tgt != nil:
		regions := make([]bus.Region, len(cfg.Peripherals))
		for i, pc := range cfg.Peripherals {
			port, err := tgt.Port(pc.Name)
			if err != nil {
				return nil, err
			}
			regions[i] = bus.Region{
				Name: pc.Name,
				Base: t.cpu.Config().MMIOBase + uint32(i)*core.PeriphRegionSize,
				Size: core.PeriphRegionSize,
				IRQ:  i,
				Port: port,
			}
		}
		router, err := bus.NewRouter(regions)
		if err != nil {
			return nil, err
		}
		t.cpu.SetMMIO(router)
		t.snapman = core.NewSnapshotManager(snapshot.NewStore(), tgt, router)
	case len(cfg.Peripherals) > 0:
		t.cpu.SetMMIO(idleMMIO{})
	}
	if err := t.cpu.Load(cfg.Program); err != nil {
		return nil, err
	}
	t.cpu.OnEcall = func(cp *vm.CPU, service int32) bool {
		switch service {
		case isa.EcallMakeSymbolic:
			addr, length := cp.Regs[1], cp.Regs[2]
			for i := uint32(0); i < length; i++ {
				var b byte
				if int(i) < len(t.input) {
					b = t.input[i]
				}
				if err := cp.WriteMem(addr+i, 1, uint32(b)); err != nil {
					cp.Stop, cp.Fault = vm.StopFault, err
					return true
				}
			}
			return true
		case isa.EcallSnapshotHint:
			if t.cpuSnap == nil {
				t.cpuSnap = cp.Snapshot()
				if t.snapman != nil {
					if id, err := t.snapman.Capture(); err == nil {
						t.hwSnap = id
					}
				}
			}
			return true
		}
		return false
	}
	// First execution, from the entry point, reaches the snapshot hint.
	if err := t.run(cfg.MaxStepsPerExec); err != nil {
		return nil, err
	}
	if t.cpuSnap == nil {
		return nil, errors.New("fuzz twin: firmware never reached its snapshot hint")
	}
	return t, nil
}

func (t *fuzzTwin) run(maxSteps uint64) error {
	if maxSteps == 0 {
		maxSteps = 50_000
	}
	for steps := uint64(0); t.cpu.Stop == vm.StopNone && steps < maxSteps; steps++ {
		if !t.cpu.Step() {
			break
		}
		t.instrs++
		if t.tgt != nil {
			if err := t.tgt.Advance(1); err != nil {
				return err
			}
		}
	}
	if t.cpu.Stop == vm.StopFault {
		return t.cpu.Fault
	}
	return nil
}

// replay runs one exec per sample over the corpus and returns the
// median ns of the CPU restore and of the run after it, and the mean
// instructions per exec.
func (t *fuzzTwin) replay(inputs [][]byte, maxSteps uint64) (restoreNS, runNS, instrs float64, err error) {
	restores, runs := make([]float64, probeSamples), make([]float64, probeSamples)
	t.instrs = 0
	for i := range restores {
		t0 := time.Now()
		t.cpu.RestoreSnapshot(t.cpuSnap)
		t1 := time.Now()
		if t.hwSnap != 0 {
			if err := t.snapman.Restore(t.hwSnap); err != nil {
				return 0, 0, 0, err
			}
		}
		t2 := time.Now()
		t.input = inputs[i%len(inputs)]
		if err := t.run(maxSteps); err != nil {
			return 0, 0, 0, err
		}
		restores[i], runs[i] = float64(t1.Sub(t0)), float64(time.Since(t2))
	}
	sort.Float64s(restores)
	sort.Float64s(runs)
	return median(restores), median(runs), float64(t.instrs) / probeSamples, nil
}

// probeFuzz attributes the fuzz loop's host time from outside, on the
// corpus the traced campaign kept. The vm figures come from a twin
// with no hardware under it. With hardware in the loop a second twin
// runs over a decorated target: its spans are the target's share and
// its split by operation, and its transcript is what the sim probe
// replays.
func probeFuzz(e *env, cfg fuzz.Config, o *outcome, wallNS int64) error {
	m := o.layer
	if err := probeBus(m); err != nil {
		return err
	}
	inputs, _, err := fuzz.LoadCorpusDir(cfg.CorpusDir)
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return errors.New("fuzz probe: the campaign saved no corpus")
	}
	perExec := float64(o.work) / float64(wallNS) // ns per exec -> share of the run

	soft, err := newFuzzTwin(cfg, nil)
	if err != nil {
		return err
	}
	restoreNS, runNS, instrs, err := soft.replay(inputs, cfg.MaxStepsPerExec)
	if err != nil {
		return err
	}
	m["vm.restore_ns"] = restoreNS
	m["vm.run_ns_per_instr"] = ratio(runNS, instrs)
	m["vm.restore_share"] = restoreNS * perExec
	if len(cfg.Peripherals) == 0 {
		m["vm.instr_per_exec"] = instrs
		m["vm.run_share"] = runNS * perExec
		return nil
	}

	tr := newTracer(e.tr.rep)
	tr.begin(kRun, -1)
	t0 := time.Now()
	root, err := target.NewSimulator("twin", &vtime.Clock{}, cfg.Peripherals)
	if err != nil {
		return err
	}
	m["target.build_ms"] = float64(time.Since(t0)) / 1e6
	hard, err := newFuzzTwin(cfg, tr.wrap(root))
	if err != nil {
		return err
	}
	// Spans and transcript from the steady state only, not from the
	// first execution that establishes the snapshot.
	tr.reset()
	if _, _, instrs, err = hard.replay(inputs, cfg.MaxStepsPerExec); err != nil {
		return err
	}
	// The polling firmware runs more instructions against real
	// hardware than against idle registers.
	m["vm.instr_per_exec"] = instrs
	m["vm.run_share"] = m["vm.run_ns_per_instr"] * instrs * perExec

	const n = float64(probeSamples)
	tt := tr.targetTotals()
	restores := tt.count[kRestore] + tt.count[kRestoreDelta]
	m["target.io_ops"] = float64(tt.count[kIO]) / n * float64(o.work)
	m["bus.mmio_ops"] = m["target.io_ops"]
	m["sim.cycles"] = float64(tt.count[kIO]+tt.count[kAdvance]) / n * float64(o.work)
	m["target.io_ns"] = ratio(float64(tt.ns[kIO]), float64(tt.count[kIO]))
	m["target.restore_ns"] = ratio(float64(tt.ns[kRestore]+tt.ns[kRestoreDelta]), float64(restores))
	m["target.advance_share"] = float64(tt.ns[kAdvance]) / n * perExec
	m["target.share"] = float64(tt.allNS()) / n * perExec

	pc := cfg.Peripherals[0]
	if err := probeSim(pc, false, tr.transcript, m); err != nil {
		return err
	}
	return probeSnapshot(hard.tgt, pc.Name, m)
}

// ---- explore-* ---------------------------------------------------------

type stubMMIO struct{}

func (stubMMIO) Read(*symexec.State, uint32) (uint32, error) { return 0, nil }
func (stubMMIO) Write(*symexec.State, uint32, uint32) error  { return nil }

// probeStep times Executor.Step along the firmware's first path
// (branch feasibility queries included), hardware stubbed out.
func probeStep(prog *asm.Program, m map[string]float64) error {
	ex, err := symexec.New(symexec.Config{}, prog, stubMMIO{})
	if err != nil {
		return err
	}
	var steps int
	t0 := time.Now()
	for steps < probeSamples {
		st := ex.InitialState()
		for st.Status == symexec.StatusRunning {
			if _, err := ex.Step(st); err != nil {
				return err
			}
			steps++
		}
	}
	m["symexec.step_ns"] = float64(time.Since(t0)) / float64(steps)
	return nil
}

// probeJournal times one Append + Sync at the campaign's mean record
// size: the group-commit path a subtree completion waits on.
func probeJournal(dir string, m map[string]float64) error {
	records := m["journal.records"]
	if records == 0 {
		return nil
	}
	payload := make([]byte, int(m["journal.bytes"]/records))
	w, err := journal.Create(filepath.Join(dir, "probe.hsj"))
	if err != nil {
		return err
	}
	var appendErr error
	m["journal.append_sync_us"] = probeNS(probeSamples, 1, nil, func() {
		if err := w.Append(1, payload); err != nil {
			appendErr = err
		}
		if err := w.Sync(); err != nil {
			appendErr = err
		}
	}) / 1e3
	if err := w.Close(); err != nil {
		return err
	}
	return appendErr
}

func probeExplore(e *env, spec exploreSpec, prog *asm.Program, r *rig, o *outcome) error {
	m := o.layer
	if err := probeBus(m); err != nil {
		return err
	}
	if err := probeStep(prog, m); err != nil {
		return err
	}
	if err := probeSim(spec.periph, spec.fpga, e.tr.transcript, m); err != nil {
		return err
	}
	if err := probeJournal(e.tmp, m); err != nil {
		return err
	}
	if r.client != nil {
		port, err := r.client.Port(spec.periph.Name)
		if err != nil {
			return err
		}
		var readErr error
		m["remote.rtt_us"] = probeNS(probeSamples, 1, nil, func() {
			if _, err := port.ReadReg(0); err != nil {
				readErr = err
			}
		}) / 1e3
		if readErr != nil {
			return readErr
		}
	}
	m["sim.cycles"] = e.tr.cycles()
	// Last: saving probe records moves the target's state.
	return probeSnapshot(r.root, spec.periph.Name, m)
}

// ---- sim-aes -----------------------------------------------------------

func probeAES(e *env, root *target.Target, o *outcome) error {
	m := o.layer
	if err := probeBus(m); err != nil {
		return err
	}
	if err := probeSim(target.PeriphConfig{Periph: "aes128"}, false, e.tr.transcript, m); err != nil {
		return err
	}
	return probeSnapshot(root, "aes0", m)
}
