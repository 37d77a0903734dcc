package rtl_test

import (
	"fmt"
	"testing"

	"hardsnap/internal/expr"
	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/sim"
	"hardsnap/internal/testseed"
)

// TestSymStepMatchesEngines checks the symbolic evaluator against the
// two concrete engines on constants: for every scan-instrumented
// corpus peripheral and 64 random states (registers, memories and
// inputs, with scan_enable high), each register's and memory word's
// next-value term, evaluated at that state, equals what one StepCycle
// leaves under the interpreter and under the compiled engine.
func TestSymStepMatchesEngines(t *testing.T) {
	for _, kind := range []string{"gpio", "timer", "crc32", "uart", "spi", "aes128", "regfile"} {
		t.Run(kind, func(t *testing.T) {
			d, _, err := periph.Build(kind, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			en, ok := d.SignalByName("scan_enable")
			if !ok {
				t.Fatal("no scan_enable")
			}
			cyc := rtl.SymStep(d, expr.NewBuilder(), map[int]uint64{en.ID: 1})
			engines := map[sim.EngineKind]*sim.Simulator{}
			for _, k := range []sim.EngineKind{sim.EngineInterp, sim.EngineCompiled} {
				if engines[k], err = sim.NewEngine(d, k); err != nil {
					t.Fatal(err)
				}
			}
			r := testseed.Quick(t, 64).Rand
			var ev expr.Evaluator
			for n := 0; n < 64; n++ {
				hw := &sim.HWState{Regs: map[string]uint64{}, Mems: map[string][]uint64{}, Inputs: map[string]uint64{}}
				a := expr.Assignment{}
				for _, sig := range d.Signals {
					v := r.Uint64() & expr.Mask(sig.Width)
					switch {
					case sig == en:
						hw.Inputs[sig.Name] = 1
					case sig.IsInput:
						hw.Inputs[sig.Name], a[sig.Name] = v, v
					case sig.IsReg:
						hw.Regs[sig.Name], a[sig.Name] = v, v
					}
				}
				for _, m := range d.Memories {
					words := make([]uint64, m.Depth)
					for i := range words {
						words[i] = r.Uint64() & expr.Mask(m.Width)
						a[fmt.Sprintf("%s[%d]", m.Name, i)] = words[i]
					}
					hw.Mems[m.Name] = words
				}
				for k, s := range engines {
					if err := s.Restore(hw); err != nil {
						t.Fatal(err)
					}
					if err := s.StepCycle(); err != nil {
						t.Fatal(err)
					}
					got := s.Snapshot()
					for _, sig := range d.Regs() {
						next, err := cyc.Next(sig.ID)
						if err != nil {
							t.Fatalf("%s: %v", sig.Name, err)
						}
						if want := ev.Eval(next, a); got.Regs[sig.Name] != want {
							t.Fatalf("state %d, %v engine: %s = %#x, symbolic step gives %#x", n, k, sig.Name, got.Regs[sig.Name], want)
						}
					}
					for _, m := range d.Memories {
						for i := uint(0); i < m.Depth; i++ {
							next, err := cyc.NextWord(m.ID, i)
							if err != nil {
								t.Fatalf("%s[%d]: %v", m.Name, i, err)
							}
							if want := ev.Eval(next, a); got.Mems[m.Name][i] != want {
								t.Fatalf("state %d, %v engine: %s[%d] = %#x, symbolic step gives %#x", n, k, m.Name, i, got.Mems[m.Name][i], want)
							}
						}
					}
				}
			}
		})
	}
}
