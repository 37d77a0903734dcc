package rtl_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hardsnap/internal/expr"
	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/sim"
	"hardsnap/internal/testseed"
	"hardsnap/internal/verilog"
)

// TestSymStepMatchesEngines checks the symbolic evaluator against the
// two concrete engines on constants, in both modes of every
// scan-instrumented corpus peripheral: scan_enable pinned high (the
// scan shift) and low (the peripheral's own behaviour). For 64 random
// states (registers, memories and inputs), each modeled register's and
// memory word's next-value term, evaluated at that state, equals what
// one StepCycle leaves under the interpreter and under the compiled
// engine. The unmodeled targets are pinned: none in scan mode, and in
// functional mode the words of the memory a peripheral writes at a
// non-constant index.
func TestSymStepMatchesEngines(t *testing.T) {
	unmodeled := map[string]string{"uart": "fifo", "regfile": "file"} // functional mode
	for _, kind := range []string{"gpio", "timer", "crc32", "uart", "spi", "aes128", "regfile"} {
		t.Run(kind, func(t *testing.T) {
			for _, scan := range []uint64{1, 0} {
				t.Run(fmt.Sprintf("scan_enable=%d", scan), func(t *testing.T) {
					d, _, err := periph.Build(kind, nil, true)
					if err != nil {
						t.Fatal(err)
					}
					en, ok := d.SignalByName("scan_enable")
					if !ok {
						t.Fatal("no scan_enable")
					}
					cyc := rtl.SymStep(d, expr.NewBuilder(), map[int]uint64{en.ID: scan})
					var got, want []string
					if m, ok := d.MemoryByName(unmodeled[kind]); ok && scan == 0 {
						for i := range m.Depth {
							want = append(want, fmt.Sprintf("%s[%d]", m.Name, i))
						}
					}
					next := map[string]*expr.Term{} // by "reg" or "mem[word]"
					for _, sig := range d.Regs() {
						if next[sig.Name], err = cyc.Next(sig.ID); err != nil {
							got = append(got, sig.Name)
						}
					}
					for _, m := range d.Memories {
						for i := range m.Depth {
							name := fmt.Sprintf("%s[%d]", m.Name, i)
							if next[name], err = cyc.NextWord(m.ID, i); err != nil {
								got = append(got, name)
							}
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("unmodeled targets %v, want %v", got, want)
					}
					pinned := map[int]uint64{en.ID: scan}
					matchEngines(t, d, next, pinned, testseed.Quick(t, 64).Rand, 64, sim.EngineInterp, sim.EngineCompiled)
				})
			}
		})
	}
}

// TestSymStepReadsUndrivenAsZero: a reg no block writes and a wire
// nothing drives hold their power-on 0 on both engines (neither is
// state), so a register that reads them is modeled, and its next value
// equals one StepCycle of each engine.
func TestSymStepReadsUndrivenAsZero(t *testing.T) {
	const src = `module undriven (
  input wire clk,
  input wire [7:0] d
);
  reg [7:0] ghost;
  wire [3:0] loose;
  reg [7:0] r;
  reg [7:0] q;
  always @(posedge clk) begin
    r <= d + ghost;
    q <= {loose, r[3:0]} ^ ghost;
  end
endmodule
`
	file, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(file, "undriven", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ghost, ok := d.SignalByName("ghost"); !ok || ghost.IsReg {
		t.Fatalf("ghost: found %v, want a signal that is not state", ok)
	}
	cyc := rtl.SymStep(d, expr.NewBuilder(), nil)
	next := map[string]*expr.Term{}
	for _, sig := range d.Regs() {
		if next[sig.Name], err = cyc.Next(sig.ID); err != nil {
			t.Fatalf("%s unmodeled: %v", sig.Name, err)
		}
	}
	if len(next) != 2 {
		t.Fatalf("registers %v, want r and q", next)
	}
	matchEngines(t, d, next, nil, testseed.Quick(t, 64).Rand, 64, sim.EngineInterp, sim.EngineCompiled)
}

// matchEngines evaluates every modeled next-value term of next (by
// register name or "memory[word]") at states random states of d drawn
// from r, with the pinned inputs held, and checks that one StepCycle of
// each engine kind from that state leaves the same value.
func matchEngines(t *testing.T, d *rtl.Design, next map[string]*expr.Term, pinned map[int]uint64, r *rand.Rand, states int, kinds ...sim.EngineKind) {
	t.Helper()
	engines := map[sim.EngineKind]*sim.Simulator{}
	for _, k := range kinds {
		var err error
		if engines[k], err = sim.NewEngine(d, k); err != nil {
			t.Fatal(err)
		}
	}
	var ev expr.Evaluator
	for n := 0; n < states; n++ {
		l := engines[kinds[0]].Layout()
		hw := sim.NewHWState(l, nil)
		vals := hw.Vals()
		a := expr.Assignment{}
		for _, sig := range d.Signals {
			v := r.Uint64() & expr.Mask(sig.Width)
			if pin, ok := pinned[sig.ID]; ok {
				vals[statePos(l, sig.Name)] = pin
			} else if sig.IsInput || sig.IsReg {
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
			check := func(name string, p int) {
				if term := next[name]; term != nil && got[p] != ev.Eval(term, a) {
					t.Fatalf("state %d, %v engine: %s = %#x, symbolic step gives %#x", n, k, name, got[p], ev.Eval(term, a))
				}
			}
			for _, sig := range d.Regs() {
				check(sig.Name, statePos(l, sig.Name))
			}
			for _, m := range d.Memories {
				for i := range m.Depth {
					check(fmt.Sprintf("%s[%d]", m.Name, i), statePos(l, m.Name)+int(i))
				}
			}
		}
	}
}

// FuzzSymStepMatchesInterp checks SymStep against the interpreter on
// the generated netlists the engines' differential fuzzers use: seed
// picks a testseed.Netlist design (no input pinned) and state seeds
// four random states of it; at each, every modeled next value equals
// what one interpreter StepCycle leaves.
func FuzzSymStepMatchesInterp(f *testing.F) {
	for _, seed := range []int64{0, 3, 11, 42, 174} {
		f.Add(seed, int64(1))
	}
	f.Fuzz(func(t *testing.T, seed, state int64) {
		src := (&testseed.Netlist{R: rand.New(rand.NewSource(seed))}).Generate()
		file, err := verilog.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		d, err := rtl.Elaborate(file, "fz", nil)
		if err != nil {
			t.Fatalf("elaborate: %v\n%s", err, src)
		}
		cyc := rtl.SymStep(d, expr.NewBuilder(), nil)
		next := map[string]*expr.Term{}
		for _, sig := range d.Regs() {
			next[sig.Name], _ = cyc.Next(sig.ID)
		}
		for _, m := range d.Memories {
			for i := range m.Depth {
				next[fmt.Sprintf("%s[%d]", m.Name, i)], _ = cyc.NextWord(m.ID, i)
			}
		}
		matchEngines(t, d, next, nil, rand.New(rand.NewSource(state)), 4, sim.EngineInterp)
	})
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
