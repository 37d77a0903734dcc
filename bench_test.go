// Benchmarks regenerating the paper's evaluation artifacts (one
// benchmark group per table/figure; see DESIGN.md experiment index)
// plus micro-benchmarks of the core substrates. Where a benchmark
// models a paper measurement, the deterministic *virtual-time* result
// is attached via ReportMetric (vt-ns/op) next to Go's host-time
// measurement.
package hardsnap_test

import (
	"fmt"
	"testing"

	"hardsnap"
	"hardsnap/internal/core"
	"hardsnap/internal/expr"
	"hardsnap/internal/fuzz"
	"hardsnap/internal/periph"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/sim"
	"hardsnap/internal/solver"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// --- E1: snapshot save/restore per peripheral and method -----------

func benchSnapshot(b *testing.B, periphName string, fpga, readback bool) {
	b.Helper()
	clock := &vtime.Clock{}
	cfg := []target.PeriphConfig{{Name: "p", Periph: periphName}}
	var tgt *target.Target
	var err error
	if fpga {
		tgt, err = target.NewFPGA("t", clock, cfg, readback)
	} else {
		tgt, err = target.NewSimulator("t", clock, cfg)
	}
	if err != nil {
		b.Fatal(err)
	}
	if err := tgt.Advance(20); err != nil {
		b.Fatal(err)
	}
	before := clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := tgt.Save()
		if err != nil {
			b.Fatal(err)
		}
		if err := tgt.Restore(st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	vt := clock.Now() - before
	b.ReportMetric(float64(vt.Nanoseconds())/float64(b.N), "vt-ns/op")
}

func BenchmarkSnapshotSimulator(b *testing.B) {
	for _, p := range []string{"gpio", "timer", "uart", "aes128"} {
		b.Run(p, func(b *testing.B) { benchSnapshot(b, p, false, false) })
	}
}

func BenchmarkSnapshotFPGAScan(b *testing.B) {
	for _, p := range []string{"gpio", "timer", "uart", "aes128"} {
		b.Run(p, func(b *testing.B) { benchSnapshot(b, p, true, false) })
	}
}

func BenchmarkSnapshotFPGAReadback(b *testing.B) {
	for _, p := range []string{"gpio", "timer", "uart", "aes128"} {
		b.Run(p, func(b *testing.B) { benchSnapshot(b, p, true, true) })
	}
}

// --- E2: scan-chain cost vs design size ----------------------------

func BenchmarkScanSweep(b *testing.B) {
	for _, depth := range []uint64{16, 64, 256} {
		b.Run(fmt.Sprintf("flops-%d", depth*32+16), func(b *testing.B) {
			clock := &vtime.Clock{}
			tgt, err := target.NewFPGA("t", clock, []target.PeriphConfig{{
				Name: "rf", Periph: "regfile",
				Params: map[string]uint64{"DEPTH": depth, "WIDTH": 32},
			}}, false)
			if err != nil {
				b.Fatal(err)
			}
			before := clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := tgt.Save()
				if err != nil {
					b.Fatal(err)
				}
				if err := tgt.Restore(st); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			vt := clock.Now() - before
			b.ReportMetric(float64(vt.Nanoseconds())/float64(b.N), "vt-ns/op")
		})
	}
}

// --- E3: I/O forwarding latency ------------------------------------

func BenchmarkForwarding(b *testing.B) {
	for _, kind := range []string{"simulator", "fpga"} {
		b.Run(kind, func(b *testing.B) {
			clock := &vtime.Clock{}
			cfg := []target.PeriphConfig{{Name: "g", Periph: "gpio"}}
			var tgt *target.Target
			var err error
			if kind == "fpga" {
				tgt, err = target.NewFPGA("t", clock, cfg, false)
			} else {
				tgt, err = target.NewSimulator("t", clock, cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			port, err := tgt.Port("g")
			if err != nil {
				b.Fatal(err)
			}
			before := clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := port.WriteReg(0, uint32(i)); err != nil {
					b.Fatal(err)
				}
				if _, err := port.ReadReg(0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			vt := clock.Now() - before
			b.ReportMetric(float64(vt.Nanoseconds())/float64(2*b.N), "vt-ns/access")
		})
	}
}

// --- E4: exploration with snapshots vs reboot ----------------------

func benchExploration(b *testing.B, mode core.Mode) {
	b.Helper()
	fw := explorationFirmware(3)
	for i := 0; i < b.N; i++ {
		a, err := core.Setup(core.SetupConfig{
			Firmware:    fw,
			Peripherals: []target.PeriphConfig{{Name: "g", Periph: "gpio"}},
			FPGA:        true,
			Engine: core.Config{
				Mode:            mode,
				Searcher:        symexec.BFS{},
				MaxInstructions: 2_000_000,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := a.Engine.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.VirtualTime.Nanoseconds()), "vt-ns/run")
			b.ReportMetric(float64(len(rep.Finished)), "paths")
		}
	}
}

func explorationFirmware(k int) string {
	src := `
_start:
		addi r10, r0, 100
init:
		addi r10, r10, -1
		bne r10, r0, init
		li r8, 0x40000000
		li r1, 0x100
		addi r2, r0, ` + fmt.Sprintf("%d", k) + `
		addi r3, r0, 1
		ecall 1
		addi r7, r0, 0
`
	for i := 0; i < k; i++ {
		src += fmt.Sprintf(`
		lbu r4, %d(r1)
		andi r4, r4, 1
		beq r4, r0, skip%d
		addi r7, r7, 1
		sw r7, 0(r8)
skip%d:
`, i, i, i)
	}
	return src + "\t\thalt\n"
}

func BenchmarkExplorationHardSnap(b *testing.B) { benchExploration(b, core.ModeHardSnap) }
func BenchmarkExplorationReboot(b *testing.B)   { benchExploration(b, core.ModeNaiveReboot) }

// --- E6: instrumentation toolchain ---------------------------------

func BenchmarkInstrumentation(b *testing.B) {
	for _, p := range []string{"uart", "aes128"} {
		b.Run(p, func(b *testing.B) {
			spec, _ := periph.Lookup(p)
			for i := 0; i < b.N; i++ {
				f, err := spec.Parse()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := scanchain.InstrumentAll(f, spec.Top, scanchain.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: cross-target transfer -------------------------------------

func BenchmarkTransfer(b *testing.B) {
	clock := &vtime.Clock{}
	cfg := []target.PeriphConfig{{Name: "aes0", Periph: "aes128"}}
	fpga, err := target.NewFPGA("f", clock, cfg, false)
	if err != nil {
		b.Fatal(err)
	}
	simT, err := target.NewSimulator("s", clock, cfg)
	if err != nil {
		b.Fatal(err)
	}
	before := clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := target.Transfer(fpga, simT); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	vt := clock.Now() - before
	b.ReportMetric(float64(vt.Nanoseconds())/float64(b.N), "vt-ns/op")
}

// --- E8: fuzzing reset strategies ----------------------------------

func benchFuzz(b *testing.B, reset fuzz.ResetStrategy) {
	b.Helper()
	prog, err := hardsnap.Assemble(`
_start:
		addi r10, r0, 50
init:
		addi r10, r10, -1
		bne r10, r0, init
		ecall 6
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		halt
	`, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := fuzz.Run(fuzz.Config{
			Program:  prog,
			Reset:    reset,
			MaxExecs: 50,
			InputLen: 4,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ExecsPerVirtSecond, "vt-execs/s")
		}
	}
}

func BenchmarkFuzzSnapshotReset(b *testing.B) { benchFuzz(b, fuzz.ResetSnapshot) }
func BenchmarkFuzzRebootReset(b *testing.B)   { benchFuzz(b, fuzz.ResetReboot) }

// --- substrate micro-benchmarks ------------------------------------

func BenchmarkRTLCycle(b *testing.B) {
	for _, p := range []string{"uart", "aes128"} {
		b.Run(p, func(b *testing.B) {
			design, _, err := periph.Build(p, nil, false)
			if err != nil {
				b.Fatal(err)
			}
			s, err := sim.New(design)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.StepCycle(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolver32BitEquation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eb := expr.NewBuilder()
		s := solver.New(0)
		x := eb.Var("x", 32)
		res, _, err := s.Check([]*expr.Term{
			eb.Eq(eb.Add(eb.Xor(x, eb.Const(0xDEADBEEF, 32)), eb.Const(0x1111, 32)), eb.Const(0xCAFEBABE, 32)),
		})
		if err != nil || res != solver.Sat {
			b.Fatalf("res %v err %v", res, err)
		}
	}
}

func BenchmarkSymbolicStep(b *testing.B) {
	prog, err := hardsnap.Assemble(`
_start:
		addi r1, r1, 1
		xor r2, r2, r1
		j _start
	`, 0)
	if err != nil {
		b.Fatal(err)
	}
	e, err := symexec.New(symexec.Config{}, prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	st := e.InitialState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(st); err != nil {
			b.Fatal(err)
		}
	}
}
