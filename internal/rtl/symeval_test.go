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
				l := engines[sim.EngineInterp].Layout()
				hw := sim.NewHWState(l, nil)
				vals := hw.Vals()
				a := expr.Assignment{}
				for _, sig := range d.Signals {
					v := r.Uint64() & expr.Mask(sig.Width)
					switch {
					case sig == en:
						vals[statePos(l, sig.Name)] = 1
					case sig.IsInput || sig.IsReg:
						vals[statePos(l, sig.Name)], a[sig.Name] = v, v
					}
				}
				for _, m := range d.Memories {
					p := statePos(l, m.Name)
					for i := range m.Depth {
						vals[p+int(i)] = r.Uint64() & expr.Mask(m.Width)
						a[fmt.Sprintf("%s[%d]", m.Name, i)] = vals[p+int(i)]
					}
				}
				for k, s := range engines {
					if err := s.Restore(hw); err != nil {
						t.Fatal(err)
					}
					if err := s.StepCycle(); err != nil {
						t.Fatal(err)
					}
					got := s.Snapshot().Vals()
					for _, sig := range d.Regs() {
						next, err := cyc.Next(sig.ID)
						if err != nil {
							t.Fatalf("%s: %v", sig.Name, err)
						}
						if p := statePos(l, sig.Name); got[p] != ev.Eval(next, a) {
							t.Fatalf("state %d, %v engine: %s = %#x, symbolic step gives %#x", n, k, sig.Name, got[p], ev.Eval(next, a))
						}
					}
					for _, m := range d.Memories {
						for i := uint(0); i < m.Depth; i++ {
							next, err := cyc.NextWord(m.ID, i)
							if err != nil {
								t.Fatalf("%s[%d]: %v", m.Name, i, err)
							}
							if p := statePos(l, m.Name); got[p+int(i)] != ev.Eval(next, a) {
								t.Fatalf("state %d, %v engine: %s[%d] = %#x, symbolic step gives %#x", n, k, m.Name, i, got[p+int(i)], ev.Eval(next, a))
							}
						}
					}
				}
			}
		})
	}
}

// statePos is the vector position of the named register or input of
// layout l, or of word 0 of the named memory.
func statePos(l *sim.Layout, name string) int {
	n := 0
	for _, r := range l.Regs {
		if r == name {
			return n
		}
		n++
	}
	for i, m := range l.Mems {
		if m == name {
			return n
		}
		n += l.Depths[i]
	}
	for _, in := range l.Inputs {
		if in == name {
			return n
		}
		n++
	}
	panic("no state element " + name)
}
