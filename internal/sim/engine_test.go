package sim

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/testseed"
	"hardsnap/internal/verilog"
)

// buildEngines elaborates one source and returns an interpreter and a
// compiled simulator over it. The compiled engine must not silently
// fall back: every construct these tests generate is meant to compile.
func buildEngines(t *testing.T, src, top string) (*Simulator, *Simulator) {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	d1, err := rtl.Elaborate(f, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v\n%s", err, src)
	}
	// Elaborate twice so the two simulators share nothing.
	d2, err := rtl.Elaborate(f, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	si, err := NewEngine(d1, EngineInterp)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	sc, err := NewEngine(d2, EngineCompiled)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return si, sc
}

// sameState asserts bit-identical observable state between the two
// engines: every signal value, every memory element, the mutation
// generation and the dirty footprint.
func sameState(t *testing.T, si, sc *Simulator, ctx string) {
	t.Helper()
	for id, v := range si.state.Vals {
		if sc.state.Vals[id] != v {
			t.Fatalf("%s: signal %s: interp=%#x compiled=%#x",
				ctx, si.design.Signals[id].Name, v, sc.state.Vals[id])
		}
	}
	for id, m := range si.state.Mems {
		for i, v := range m {
			if sc.state.Mems[id][i] != v {
				t.Fatalf("%s: mem %s[%d]: interp=%#x compiled=%#x",
					ctx, si.design.Memories[id].Name, i, v, sc.state.Mems[id][i])
			}
		}
	}
	if si.Gen() != sc.Gen() {
		t.Fatalf("%s: gen: interp=%d compiled=%d", ctx, si.Gen(), sc.Gen())
	}
	if si.DirtyBits() != sc.DirtyBits() {
		t.Fatalf("%s: dirty bits: interp=%d compiled=%d", ctx, si.DirtyBits(), sc.DirtyBits())
	}
}

// TestCorpusPeripheralsCompile pins that every corpus peripheral runs
// on the compiled engine — no silent interpreter fallback for the
// designs the repo actually benchmarks — under an explicit engine
// choice and under Auto, the default.
func TestCorpusPeripheralsCompile(t *testing.T) {
	for _, name := range []string{"gpio", "timer", "crc32", "uart", "spi", "aes128", "regfile"} {
		d, _, err := periph.Build(name, nil, false)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if _, err := NewEngine(d, EngineCompiled); err != nil {
			t.Fatalf("%s: does not compile: %v", name, err)
		}
		a, err := NewEngine(d, EngineAuto)
		if err != nil {
			t.Fatal(err)
		}
		if a.eng == nil {
			t.Fatalf("%s: Auto fell back to the interpreter", name)
		}
	}
}

// TestDifferentialFuzz generates random small netlists and asserts
// the compiled engine is cycle-exact against the interpreter —
// identical signal values, memory contents, mutation generation and
// dirty footprint — across stepped cycles, input drives, over-wide
// pokes and anchor-guarded delta restores.
func TestDifferentialFuzz(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := &testseed.Netlist{R: r}
		src := g.Generate()
		si, sc := buildEngines(t, src, "fz")
		ctx := func(c int, what string) string {
			return fmt.Sprintf("seed %d cycle %d after %s\n%s", seed, c, what, src)
		}
		sameState(t, si, sc, ctx(0, "init"))

		si.ClearDirty()
		sc.ClearDirty()
		anchor := si.Snapshot()
		if !reflect.DeepEqual(anchor, sc.Snapshot()) {
			t.Fatalf("seed %d: anchor snapshots differ\n%s", seed, src)
		}

		for cycle := 0; cycle < 50; cycle++ {
			// Drive inputs with occasionally over-wide values.
			for _, in := range g.Inputs {
				v := r.Uint64()
				if err := si.SetInput(in.Name, v); err != nil {
					t.Fatal(err)
				}
				if err := sc.SetInput(in.Name, v); err != nil {
					t.Fatal(err)
				}
			}
			// Interleave pokes: registers, wires and memory elements.
			if cycle%7 == 3 {
				tg := g.Regs[r.Intn(len(g.Regs))]
				v := r.Uint64()
				if err := si.Poke(tg.Name, v); err != nil {
					t.Fatal(err)
				}
				if err := sc.Poke(tg.Name, v); err != nil {
					t.Fatal(err)
				}
			}
			if cycle%11 == 5 {
				tg := g.Wires[r.Intn(len(g.Wires))]
				v := r.Uint64()
				si.Poke(tg.Name, v)
				sc.Poke(tg.Name, v)
			}
			if g.MemName != "" && cycle%5 == 2 {
				idx := uint(r.Intn(int(g.MemD)))
				v := r.Uint64()
				if err := si.PokeMem(g.MemName, idx, v); err != nil {
					t.Fatal(err)
				}
				if err := sc.PokeMem(g.MemName, idx, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := si.StepCycle(); err != nil {
				t.Fatalf("seed %d: interp step: %v\n%s", seed, err, src)
			}
			if err := sc.StepCycle(); err != nil {
				t.Fatalf("seed %d: compiled step: %v\n%s", seed, err, src)
			}
			sameState(t, si, sc, ctx(cycle, "step"))
			if !reflect.DeepEqual(si.Snapshot(), sc.Snapshot()) {
				t.Fatalf("seed %d cycle %d: snapshots differ\n%s", seed, cycle, src)
			}

			// Periodically rewind both engines to the anchor.
			if cycle%17 == 13 {
				bi, err := si.RestoreDirty(anchor)
				if err != nil {
					t.Fatal(err)
				}
				bc2, err := sc.RestoreDirty(anchor)
				if err != nil {
					t.Fatal(err)
				}
				if bi != bc2 {
					t.Fatalf("seed %d cycle %d: restore bits interp=%d compiled=%d", seed, cycle, bi, bc2)
				}
				sameState(t, si, sc, ctx(cycle, "restore-dirty"))
			}
		}

		// Full restore back to the anchor must converge both engines.
		if err := si.Restore(anchor); err != nil {
			t.Fatal(err)
		}
		if err := sc.Restore(anchor); err != nil {
			t.Fatal(err)
		}
		sameState(t, si, sc, ctx(99, "restore"))
	}
}

// Script ops of FuzzCompiledMatchesInterp. Operands follow the op
// byte; a value is the next eight bytes, little-endian, zero-padded
// where the script ends.
const (
	xInput    = iota // i, value: drive input i
	xPoke            // i, value: poke register i
	xPokeWire        // i, value: poke wire i
	xPokeMem         // i, value: poke memory element i
	xStep            // n: n%4+1 clock cycles
	xAnchor          // snapshot the anchor and clear the dirty sets
	xRestore         // restore the anchor through the dirty lists
	numXOps
)

// FuzzCompiledMatchesInterp is TestDifferentialFuzz as a native fuzz
// target: seed picks a testseed.Netlist design and script drives both
// engines side by side — input drives, register, wire and memory
// pokes, clock cycles, anchors and dirty restores — asserting
// identical signal values, memory contents, generation and dirty
// footprint after every operation.
func FuzzCompiledMatchesInterp(f *testing.F) {
	f.Add(int64(0), []byte{xStep, 3})
	f.Add(int64(3), []byte{xInput, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, xStep, 1, xAnchor, xStep, 2, xRestore})
	f.Add(int64(11), []byte{xPoke, 1, 7, 0, 0, 0, 0, 0, 0, 0, xStep, 0, xPokeMem, 3, 9, 9, xStep, 3, xPokeWire, 0, 1, xStep, 0})
	f.Add(int64(42), []byte{xAnchor, xInput, 1, 0x5a, xStep, 3, xPoke, 0, 0xff, xStep, 1, xRestore, xStep, 3})
	// A wide result of an XOR with a wide literal reaches the state:
	// dropping a K-form's result mask fails here.
	f.Add(int64(174), []byte{xStep, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		g := &testseed.Netlist{R: rand.New(rand.NewSource(seed))}
		src := g.Generate()
		si, sc := buildEngines(t, src, "fz")
		pos := 0
		next := func() byte {
			if pos >= len(script) {
				return 0
			}
			pos++
			return script[pos-1]
		}
		value := func() uint64 {
			var v uint64
			for i := 0; i < 8; i++ {
				v |= uint64(next()) << (8 * i)
			}
			return v
		}
		both := func(what string, fn func(s *Simulator) error) {
			t.Helper()
			if err := fn(si); err != nil {
				t.Fatalf("interp %s: %v\n%s", what, err, src)
			}
			if err := fn(sc); err != nil {
				t.Fatalf("compiled %s: %v\n%s", what, err, src)
			}
		}
		anchor := si.Snapshot()
		for step := 0; pos < len(script); step++ {
			var what string
			switch op := next() % numXOps; op {
			case xInput:
				in, v := g.Inputs[int(next())%len(g.Inputs)], value()
				what = "drive " + in.Name
				both(what, func(s *Simulator) error { return s.SetInput(in.Name, v) })
			case xPoke, xPokeWire:
				sigs := g.Regs
				if op == xPokeWire {
					sigs = g.Wires
				}
				tg, v := sigs[int(next())%len(sigs)], value()
				what = "poke " + tg.Name
				both(what, func(s *Simulator) error { return s.Poke(tg.Name, v) })
			case xPokeMem:
				idx, v := uint(next()), value()
				if g.MemName == "" {
					continue
				}
				idx %= g.MemD
				what = fmt.Sprintf("poke %s[%d]", g.MemName, idx)
				both(what, func(s *Simulator) error { return s.PokeMem(g.MemName, idx, v) })
			case xStep:
				n := int(next())%4 + 1
				what = fmt.Sprintf("%d cycles", n)
				for i := 0; i < n; i++ {
					both(what, func(s *Simulator) error { return s.StepCycle() })
				}
			case xAnchor:
				what = "anchor"
				si.ClearDirty()
				sc.ClearDirty()
				anchor = si.Snapshot()
				if !reflect.DeepEqual(anchor, sc.Snapshot()) {
					t.Fatalf("step %d: anchor snapshots differ\n%s", step, src)
				}
			case xRestore:
				what = "restore-dirty"
				bi, err := si.RestoreDirty(anchor)
				if err != nil {
					t.Fatal(err)
				}
				bc2, err := sc.RestoreDirty(anchor)
				if err != nil {
					t.Fatal(err)
				}
				if bi != bc2 {
					t.Fatalf("step %d: restore bits interp=%d compiled=%d\n%s", step, bi, bc2, src)
				}
			}
			sameState(t, si, sc, fmt.Sprintf("seed %d step %d after %s\n%s", seed, step, what, src))
		}
	})
}

// TestQuickExprEquivalence is the testing/quick property: for random
// expression trees, compile-then-run equals interpretation.
func TestQuickExprEquivalence(t *testing.T) {
	prop := func(seed int64, a, bv, c uint64) bool {
		r := rand.New(rand.NewSource(seed))
		g := &testseed.Netlist{R: r}
		wa, wb, wc := uint(1+r.Intn(64)), uint(1+r.Intn(64)), uint(1+r.Intn(64))
		g.Inputs = []testseed.Signal{{Name: "a", Width: wa}, {Name: "b", Width: wb}, {Name: "c", Width: wc}}
		src := fmt.Sprintf(`
module ex (
  input wire clk,
  input wire [%d:0] a,
  input wire [%d:0] b,
  input wire [%d:0] c,
  output wire [63:0] y
);
  localparam LP = 5;
  assign y = %s;
endmodule
`, wa-1, wb-1, wc-1, g.Expr(g.Inputs, 4))
		si, sc := buildEngines(t, src, "ex")
		for _, vals := range [][3]uint64{{a, bv, c}, {c, a, bv}, {0, ^uint64(0), a}} {
			for i, name := range []string{"a", "b", "c"} {
				si.SetInput(name, vals[i])
				sc.SetInput(name, vals[i])
			}
			if err := si.EvalComb(); err != nil {
				t.Fatalf("interp eval: %v\n%s", err, src)
			}
			if err := sc.EvalComb(); err != nil {
				t.Fatal(err)
			}
			yi, _ := si.Peek("y")
			yc, _ := sc.Peek("y")
			if yi != yc {
				t.Logf("mismatch: interp=%#x compiled=%#x\n%s", yi, yc, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

// TestPokeMasksOnWrite is the regression for over-wide pokes leaving
// junk above the signal width in State.Vals: two semantically
// identical states must produce byte-identical snapshots.
func TestPokeMasksOnWrite(t *testing.T) {
	s1 := build(t, counterSrc, "counter")
	s2 := build(t, counterSrc, "counter")
	if err := s1.Poke("count", 0x42); err != nil {
		t.Fatal(err)
	}
	if err := s2.Poke("count", 0xdeadbeef_00000042); err != nil {
		t.Fatal(err)
	}
	if v, _ := s2.Peek("count"); v != 0x42 {
		t.Fatalf("over-wide poke not truncated: %#x", v)
	}
	if !reflect.DeepEqual(s1.Snapshot(), s2.Snapshot()) {
		t.Fatal("snapshots of semantically identical states differ")
	}
	if err := s1.SetInput("en", 0xfe); err != nil { // bit 0 is 0
		t.Fatal(err)
	}
	if v, _ := s1.Peek("en"); v != 0 {
		t.Fatalf("over-wide input drive not truncated: %#x", v)
	}
	if err := s2.PokeMem("nope", 0, 1); err == nil {
		t.Fatal("expected error for unknown memory")
	}
}

// TestSelfTogglingComb pins the trickiest activation case: a comb
// block reading its own output toggles exactly once per settle in
// both engines.
func TestSelfTogglingComb(t *testing.T) {
	const src = `
module tog (
  input wire clk,
  input wire en
);
  reg t;
  always @(*) begin
    if (en) t = ~t;
    else t = 0;
  end
endmodule
`
	si, sc := buildEngines(t, src, "tog")
	for _, s := range []*Simulator{si, sc} {
		if err := s.SetInput("en", 1); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 5; cycle++ {
		if err := si.StepCycle(); err != nil {
			t.Fatal(err)
		}
		if err := sc.StepCycle(); err != nil {
			t.Fatal(err)
		}
		vi, _ := si.Peek("t")
		vc, _ := sc.Peek("t")
		if vi != vc {
			t.Fatalf("cycle %d: interp=%d compiled=%d", cycle, vi, vc)
		}
	}
}

// TestQuiescentActivation verifies the activation win mechanically: a
// design whose logic is gated off runs ~zero comb nodes per cycle on
// the compiled engine once settled.
func TestQuiescentActivation(t *testing.T) {
	s := build(t, counterSrc, "counter")
	if err := s.Run(100); err != nil { // en=0: counter holds
		t.Fatal(err)
	}
	st, ok := s.EngineStats()
	if !ok {
		t.Fatal("no engine stats")
	}
	// 100 cycles x 2 settles; a full sweep would run >=200 nodes.
	// Quiescent logic must run a handful at most (initial settle).
	if st.CombRuns > 10 {
		t.Fatalf("quiescent design ran %d comb nodes over 100 cycles", st.CombRuns)
	}
	if st.SeqRuns > 10 {
		t.Fatalf("quiescent design ran %d seq blocks over 100 cycles", st.SeqRuns)
	}
	// Sanity: it still counts when enabled.
	if err := s.SetInput("en", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("count"); v != 3 {
		t.Fatalf("count = %d after enable", v)
	}
}

// ---- benchmarks (bench-smoke keeps these from rotting) ----

// busyBenchSrc keeps every node active every cycle: a free-running
// LFSR fans out through arithmetic, a case FSM and memory traffic.
const busyBenchSrc = `
module busy (
  input wire clk
);
  reg [31:0] lfsr;
  reg [31:0] acc;
  reg [1:0] st;
  reg [15:0] m [0:63];
  wire feedback = lfsr[31] ^ lfsr[21] ^ lfsr[1] ^ lfsr[0];
  wire [31:0] nxt = {lfsr[30:0], feedback};
  wire [31:0] mix = (nxt * 2654435761) ^ (acc >> 3);
  wire [15:0] folded = mix[31:16] ^ mix[15:0];
  always @(posedge clk) begin
    lfsr <= nxt;
    m[nxt[5:0]] <= folded;
    case (st)
      0: begin acc <= acc + mix; st <= 1; end
      1: begin acc <= acc ^ {2{folded}}; st <= 2; end
      2: begin acc <= acc - nxt; st <= 3; end
      default: begin acc <= m[acc[5:0]] + acc; st <= 0; end
    endcase
  end
endmodule
`

func benchSim(b *testing.B, src, top string, kind EngineKind) {
	b.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := rtl.Elaborate(f, top, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewEngine(d, kind)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBusyInterp(b *testing.B)    { benchSim(b, busyBenchSrc, "busy", EngineInterp) }
func BenchmarkBusyCompiled(b *testing.B)  { benchSim(b, busyBenchSrc, "busy", EngineCompiled) }
func BenchmarkQuietInterp(b *testing.B)   { benchSim(b, counterSrc, "counter", EngineInterp) }
func BenchmarkQuietCompiled(b *testing.B) { benchSim(b, counterSrc, "counter", EngineCompiled) }

// benchAESBlock encrypts one block per iteration on the corpus aes128,
// driven through its bus pins the way target's register port drives it
// (key, plaintext, start, poll status, read ciphertext). The design is
// case-heavy — 20 S-box instances, a 256-label case each — so this row
// moves with case dispatch where the busy row does not. The last
// ciphertext is checked against crypto/aes once per run.
func benchAESBlock(b *testing.B, kind EngineKind) {
	b.Helper()
	d, _, err := periph.Build("aes128", nil, false)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewEngine(d, kind)
	if err != nil {
		b.Fatal(err)
	}
	step := func() {
		if err := s.StepCycle(); err != nil {
			b.Fatal(err)
		}
	}
	write := func(addr, val uint32) {
		s.SetInput("sel", 1)
		s.SetInput("wen", 1)
		s.SetInput("addr", uint64(addr))
		s.SetInput("wdata", uint64(val))
		step()
		s.SetInput("sel", 0)
		s.SetInput("wen", 0)
	}
	read := func(addr uint32) uint32 {
		s.SetInput("sel", 1)
		s.SetInput("addr", uint64(addr))
		if err := s.EvalComb(); err != nil {
			b.Fatal(err)
		}
		v, err := s.Peek("rdata")
		if err != nil {
			b.Fatal(err)
		}
		step()
		s.SetInput("sel", 0)
		return uint32(v)
	}
	s.SetInput("rst", 1)
	step()
	s.SetInput("rst", 0)

	key := [16]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	var pt, got, want [16]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt = got // chain blocks so every iteration sees fresh data
		for w := uint32(0); w < 4; w++ {
			write(0x10+4*w, binary.BigEndian.Uint32(key[4*w:]))
			write(0x20+4*w, binary.BigEndian.Uint32(pt[4*w:]))
		}
		write(0x00, 1)
		for polls := 0; read(0x04)&2 == 0; polls++ {
			if polls > 64 {
				b.Fatal("aes128 never finished")
			}
			step()
		}
		for w := uint32(0); w < 4; w++ {
			binary.BigEndian.PutUint32(got[4*w:], read(0x30+4*w))
		}
	}
	b.StopTimer()
	block, err := aes.NewCipher(key[:])
	if err != nil {
		b.Fatal(err)
	}
	block.Encrypt(want[:], pt[:])
	if got != want {
		b.Fatalf("ciphertext %x, crypto/aes says %x", got, want)
	}
}

func BenchmarkAESBlockInterp(b *testing.B)   { benchAESBlock(b, EngineInterp) }
func BenchmarkAESBlockCompiled(b *testing.B) { benchAESBlock(b, EngineCompiled) }
