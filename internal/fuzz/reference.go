package fuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hardsnap/internal/bus"
	"hardsnap/internal/core"
	"hardsnap/internal/isa"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vm"
	"hardsnap/internal/vtime"
)

// RunReference executes a fuzzing campaign with the original
// map-based single-worker fuzzer, frozen here verbatim when the
// package was rebuilt around the bitmap hot loop. It is the
// differential oracle for the rewrite (the same role the reference
// interpreter plays for the compiled RTL engine):
// TestSingleWorkerMatchesReferenceCrashSet runs both fuzzers over the
// same firmware and requires the same deduplicated crash-bucket set.
// Do not optimize or otherwise modify it.
func RunReference(cfg Config) (*Result, error) {
	if cfg.Program == nil {
		return nil, errors.New("fuzz: no program")
	}
	if cfg.MaxExecs <= 0 {
		cfg.MaxExecs = 256
	}
	if cfg.MaxStepsPerExec == 0 {
		cfg.MaxStepsPerExec = 50_000
	}
	if cfg.InputLen <= 0 {
		cfg.InputLen = 8
	}
	if cfg.Reset == 0 {
		cfg.Reset = ResetSnapshot
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	clock := &vtime.Clock{}
	var tgt *target.Target
	var router *bus.Router
	var err error
	if len(cfg.Peripherals) > 0 {
		if cfg.FPGA {
			tgt, err = target.NewFPGA("fpga0", clock, cfg.Peripherals, false)
		} else {
			tgt, err = target.NewSimulator("sim0", clock, cfg.Peripherals)
		}
		if err != nil {
			return nil, err
		}
	}

	cpu := vm.New(vm.Config{}, nil)
	if tgt != nil {
		regions := make([]bus.Region, 0, len(cfg.Peripherals))
		for i, pc := range cfg.Peripherals {
			p, err := tgt.Port(pc.Name)
			if err != nil {
				return nil, err
			}
			regions = append(regions, bus.Region{
				Name: pc.Name,
				Base: cpu.Config().MMIOBase + uint32(i)*0x100,
				Size: 0x100,
				IRQ:  i,
				Port: p,
			})
		}
		router, err = bus.NewRouter(regions)
		if err != nil {
			return nil, err
		}
		cpu = vm.New(vm.Config{}, router)
	}
	if err := cpu.Load(cfg.Program); err != nil {
		return nil, err
	}

	f := &refFuzzer{
		cfg:    cfg,
		rng:    rng,
		cpu:    cpu,
		tgt:    tgt,
		router: router,
		clock:  clock,
		edges:  make(map[uint64]bool),
	}
	if tgt != nil {
		f.snapman = core.NewSnapshotManager(snapshot.NewStore(), tgt, router)
	}
	return f.run()
}

type refFuzzer struct {
	cfg    Config
	rng    *rand.Rand
	cpu    *vm.CPU
	tgt    *target.Target
	router *bus.Router
	clock  *vtime.Clock

	input []byte

	snapman *core.SnapshotManager

	cpuSnap *vm.Snapshot
	hwSnap  snapshot.ID

	powerOn snapshot.ID

	edges     map[uint64]bool
	corpus    [][]byte
	resetTime time.Duration
}

func (f *refFuzzer) run() (*Result, error) {
	cfg := f.cfg
	f.cpu.OnEcall = func(c *vm.CPU, service int32) bool {
		switch service {
		case isa.EcallMakeSymbolic:
			addr, length := c.Regs[1], c.Regs[2]
			for i := uint32(0); i < length; i++ {
				var b byte
				if int(i) < len(f.input) {
					b = f.input[i]
				}
				if err := c.WriteMem(addr+i, 1, uint32(b)); err != nil {
					c.Stop = vm.StopFault
					c.Fault = err
					return true
				}
			}
			return true
		case isa.EcallSnapshotHint:
			if cfg.Reset == ResetSnapshot && f.cpuSnap == nil {
				f.captureSnapshot()
			}
			return true
		}
		return false
	}

	if f.tgt != nil {
		var err error
		f.powerOn, err = f.snapman.Capture()
		if err != nil {
			return nil, err
		}
	}

	f.corpus = append(f.corpus, make([]byte, cfg.InputLen))
	for _, s := range cfg.Seeds {
		f.corpus = append(f.corpus, append([]byte(nil), s...))
	}

	res := &Result{}
	start := f.clock.Now()
	for exec := 0; exec < cfg.MaxExecs; exec++ {
		if err := f.reset(); err != nil {
			return nil, err
		}
		f.input = f.mutate(f.corpus[f.rng.Intn(len(f.corpus))])
		newCov, stop, pc, err := f.execOne()
		if err != nil {
			return nil, err
		}
		res.Execs++
		switch stop {
		case vm.StopAbort, vm.StopAssertFail, vm.StopFault:
			res.Crashes = append(res.Crashes, Crash{
				Input: append([]byte(nil), f.input...),
				Stop:  stop,
				PC:    pc,
				Exec:  exec,
			})
		}
		if newCov {
			f.corpus = append(f.corpus, append([]byte(nil), f.input...))
		}
		if cfg.StopAtFirstCrash && len(res.Crashes) > 0 {
			break
		}
	}
	res.Edges = len(f.edges)
	res.Corpus = len(f.corpus)
	res.VirtTime = f.clock.Now() - start
	res.ResetTime = f.resetTime
	if f.tgt != nil {
		ts := f.tgt.Stats()
		ms := f.snapman.Stats()
		res.HWSnapshotBytes = ts.SnapshotBytes
		res.HWRestores = ts.Restores
		res.DeltaRestores = ts.DeltaRestores
		res.RestoresSkipped = ms.RestoresSkipped
		res.SavesSkipped = ms.SavesSkipped
	}
	if secs := res.VirtTime.Seconds(); secs > 0 {
		res.ExecsPerVirtSecond = float64(res.Execs) / secs
	}
	return res, nil
}

func (f *refFuzzer) captureSnapshot() {
	f.cpuSnap = f.cpu.Snapshot()
	if f.tgt != nil {
		if id, err := f.snapman.Capture(); err == nil {
			f.hwSnap = id
		}
	}
}

func (f *refFuzzer) reset() error {
	before := f.clock.Now()
	defer func() { f.resetTime += f.clock.Now() - before }()

	switch f.cfg.Reset {
	case ResetNone:
		f.cpu.Stop = vm.StopNone
		f.cpu.Fault = nil
		f.cpu.PC = f.cfg.Program.Entry
		return nil

	case ResetReboot:
		f.cpu.Reset()
		if err := f.cpu.Load(f.cfg.Program); err != nil {
			return err
		}
		if f.tgt != nil {
			if err := f.snapman.Restore(f.powerOn); err != nil {
				return err
			}
		}
		f.clock.Advance(vtime.RebootTime)
		return nil

	case ResetSnapshot:
		if f.cpuSnap == nil {
			f.cpu.Reset()
			if err := f.cpu.Load(f.cfg.Program); err != nil {
				return err
			}
			return nil
		}
		f.cpu.RestoreSnapshot(f.cpuSnap)
		if f.tgt != nil && f.hwSnap != 0 {
			if err := f.snapman.Restore(f.hwSnap); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("fuzz: unknown reset strategy %d", f.cfg.Reset)
}

func (f *refFuzzer) execOne() (newCov bool, stop vm.StopReason, crashPC uint32, err error) {
	var steps uint64
	for f.cpu.Stop == vm.StopNone && steps < f.cfg.MaxStepsPerExec {
		pcBefore := f.cpu.PC
		if !f.cpu.Step() {
			break
		}
		steps++
		f.clock.Advance(vtime.VMInstruction)
		edge := uint64(pcBefore)<<32 | uint64(f.cpu.PC)
		if !f.edges[edge] {
			f.edges[edge] = true
			newCov = true
		}
		if f.tgt != nil {
			if err := f.tgt.Advance(1); err != nil {
				return false, 0, 0, err
			}
			irqs, err := f.router.RisingIRQs()
			if err != nil {
				return false, 0, 0, err
			}
			for _, n := range irqs {
				f.cpu.RaiseIRQ(n)
			}
		}
	}
	if steps >= f.cfg.MaxStepsPerExec && f.cpu.Stop == vm.StopNone {
		f.cpu.Stop = vm.StopBudget
	}
	return newCov, f.cpu.Stop, f.cpu.PC, nil
}

func (f *refFuzzer) mutate(base []byte) []byte {
	out := make([]byte, f.cfg.InputLen)
	copy(out, base)
	n := 1 + f.rng.Intn(3)
	for i := 0; i < n; i++ {
		switch f.rng.Intn(4) {
		case 0: // bit flip
			if len(out) > 0 {
				idx := f.rng.Intn(len(out))
				out[idx] ^= 1 << uint(f.rng.Intn(8))
			}
		case 1: // random byte
			if len(out) > 0 {
				out[f.rng.Intn(len(out))] = byte(f.rng.Intn(256))
			}
		case 2: // interesting values
			if len(out) > 0 {
				vals := []byte{0x00, 0xFF, 0x7F, 0x80, 0x41, 0x0A}
				out[f.rng.Intn(len(out))] = vals[f.rng.Intn(len(vals))]
			}
		case 3: // byte copy within input
			if len(out) > 1 {
				out[f.rng.Intn(len(out))] = out[f.rng.Intn(len(out))]
			}
		}
	}
	return out
}
