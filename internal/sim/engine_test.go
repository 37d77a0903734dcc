package sim

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/rtl/bc"
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

// TestCorpusPeripheralsCompile pins that every peripheral in the
// registry runs on the compiled engine — no silent interpreter
// fallback for the designs the repo actually benchmarks.
func TestCorpusPeripheralsCompile(t *testing.T) {
	for _, spec := range periph.All() {
		d, _, err := periph.Build(spec.Name, nil, false)
		if err != nil {
			t.Fatalf("%s: build: %v", spec.Name, err)
		}
		s, err := NewEngine(d, EngineCompiled)
		if err != nil {
			t.Fatalf("%s: does not compile: %v", spec.Name, err)
		}
		if s.Engine() != EngineCompiled {
			t.Fatalf("%s: engine = %s", spec.Name, s.Engine())
		}
		// And Auto must pick the compiled engine for them.
		a, err := New(d)
		if err != nil {
			t.Fatal(err)
		}
		if a.Engine() != EngineCompiled {
			t.Fatalf("%s: auto engine = %s", spec.Name, a.Engine())
		}
	}
}

// ---- random netlist generator for the differential fuzzer ----

type gsig struct {
	name  string
	width uint
}

type netlistGen struct {
	r       *rand.Rand
	inputs  []gsig
	regs    []gsig
	wires   []gsig
	memName string
	memW    uint
	memD    uint
}

func (g *netlistGen) width() uint { return uint(1 + g.r.Intn(64)) }

// readable returns signals an expression may reference: all inputs
// and registers, plus the first nwires wires (strict declaration
// order prevents combinational loops).
func (g *netlistGen) readable(nwires int) []gsig {
	out := append([]gsig{}, g.inputs...)
	out = append(out, g.regs...)
	out = append(out, g.wires[:nwires]...)
	return out
}

// literal emits a constant and its width: a sized literal (its value
// often wider than its width), the module's localparam, or an unsized
// literal, 32 bits wide but now and then holding a wider value.
func (g *netlistGen) literal() (string, uint) {
	switch g.r.Intn(5) {
	case 0, 1:
		w := uint(1 + g.r.Intn(64))
		return fmt.Sprintf("%d'h%x", w, g.r.Uint64()), w
	case 2:
		return "LP", 32
	case 3:
		return fmt.Sprintf("%d", g.r.Uint64()>>uint(g.r.Intn(64))), 32
	default:
		return fmt.Sprintf("%d", g.r.Uint32()>>uint(g.r.Intn(16))), 32
	}
}

// bitIndex emits a constant bit index into s: mostly in range, one in
// four at or past the width (past 64 too), where the select reads 0.
func (g *netlistGen) bitIndex(s gsig) int {
	if g.r.Intn(4) == 0 {
		return int(s.width) + g.r.Intn(70)
	}
	return g.r.Intn(int(s.width))
}

// partSelect emits a constant part select within s's width, and its
// width.
func (g *netlistGen) partSelect(s gsig) (string, uint) {
	lo := g.r.Intn(int(s.width))
	hi := lo + g.r.Intn(int(s.width)-lo)
	return fmt.Sprintf("%s[%d:%d]", s.name, hi, lo), uint(hi-lo) + 1
}

// concatPart emits one concat part and its width: a signal, a
// constant part or bit select of one, or a literal.
func (g *netlistGen) concatPart(sigs []gsig) (string, uint) {
	s := sigs[g.r.Intn(len(sigs))]
	switch g.r.Intn(5) {
	case 0:
		return g.partSelect(s)
	case 1:
		return fmt.Sprintf("%s[%d]", s.name, g.bitIndex(s)), 1
	case 2:
		return g.literal()
	default:
		return s.name, s.width
	}
}

// expr emits a random expression over the given signals, depth-bounded.
func (g *netlistGen) expr(sigs []gsig, depth int) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		// Leaf: signal, literal, or constrained select.
		if g.r.Intn(5) < 2 {
			lit, _ := g.literal()
			return lit
		}
		s := sigs[g.r.Intn(len(sigs))]
		switch g.r.Intn(5) {
		case 0:
			sel, _ := g.partSelect(s)
			return sel
		case 1: // dynamic bit select
			return fmt.Sprintf("%s[%s]", s.name, sigs[g.r.Intn(len(sigs))].name)
		case 2:
			return fmt.Sprintf("%s[%d]", s.name, g.bitIndex(s))
		default:
			return s.name
		}
	}
	switch g.r.Intn(8) {
	case 0:
		op := []string{"~", "-", "!", "&", "|", "^"}[g.r.Intn(6)]
		return fmt.Sprintf("(%s %s)", op, g.expr(sigs, depth-1))
	case 1, 2, 3:
		op := []string{"+", "-", "*", "/", "%", "&", "|", "^", "&&", "||",
			"==", "!=", "<", "<=", ">", ">=", "<<", ">>"}[g.r.Intn(18)]
		// The right operand is a bare signal or a constant about half
		// the time, the shapes the compiler fuses into the operator.
		var y string
		switch g.r.Intn(4) {
		case 0:
			y = sigs[g.r.Intn(len(sigs))].name
		case 1:
			y, _ = g.literal()
		default:
			y = g.expr(sigs, depth-1)
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(sigs, depth-1), op, y)
	case 4:
		return fmt.Sprintf("(%s ? %s : %s)",
			g.expr(sigs, depth-1), g.expr(sigs, depth-1), g.expr(sigs, depth-1))
	case 5: // concat of up to three narrow parts, total <= 64
		var parts []string
		var total uint
		for i := 0; i < 3; i++ {
			part, w := g.concatPart(sigs)
			if total+w > 64 {
				continue
			}
			total += w
			parts = append(parts, part)
		}
		if parts == nil {
			return sigs[g.r.Intn(len(sigs))].name
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case 6: // repeat, n*w <= 64
		s := sigs[g.r.Intn(len(sigs))]
		n := 1 + g.r.Intn(int(64/s.width))
		return fmt.Sprintf("{%d{%s}}", n, s.name)
	default: // memory read
		if g.memName == "" {
			return sigs[g.r.Intn(len(sigs))].name
		}
		return fmt.Sprintf("%s[%s]", g.memName, g.expr(sigs, 0))
	}
}

// caseLabel emits one constant label. Most are small so they collide
// with each other (duplicates across items) and with narrow subjects;
// sized, unsized, over-wide (masked by their own width), wider than
// any narrow subject, and the module's localparam all appear.
func (g *netlistGen) caseLabel() string {
	switch g.r.Intn(8) {
	case 0:
		return "LP"
	case 1:
		return fmt.Sprintf("10'd%d", g.r.Intn(1024))
	case 2:
		return fmt.Sprintf("3'd%d", g.r.Intn(16))
	case 3:
		return fmt.Sprintf("8'h%x", g.r.Intn(16))
	default:
		return fmt.Sprintf("%d", g.r.Intn(16))
	}
}

// caseStmt emits a case of 1-12 items with 1-3 labels each and the
// default absent, first, in the middle or last; body emits one item's
// statement. One case in five carries a label only the compare chain
// can take (a signal, or a constant past any table), so both
// dispatches of the compiled engine stay under the fuzzer.
func (g *netlistGen) caseStmt(sigs []gsig, body func() string) string {
	// Narrow subjects make the small labels hit; a free expression
	// keeps wide and computed subjects covered, and a bare signal the
	// dispatch that reads its subject in place.
	s := sigs[g.r.Intn(len(sigs))]
	var subj string
	switch g.r.Intn(3) {
	case 0:
		subj = g.expr(sigs, 1)
	case 1:
		subj = s.name
	default:
		hi := g.r.Intn(4)
		if hi >= int(s.width) {
			hi = int(s.width) - 1
		}
		subj = fmt.Sprintf("%s[%d:0]", s.name, hi)
	}
	nitems := 1 + g.r.Intn(12)
	chainAt := -1
	if g.r.Intn(5) == 0 {
		chainAt = g.r.Intn(nitems)
	}
	defaultAt := -1
	if g.r.Intn(4) != 0 {
		defaultAt = g.r.Intn(nitems + 1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "case (%s)\n", subj)
	for i := 0; i <= nitems; i++ {
		if i == defaultAt {
			fmt.Fprintf(&b, "default: %s\n", body())
		}
		if i == nitems {
			break
		}
		labels := make([]string, 1+g.r.Intn(3))
		for j := range labels {
			labels[j] = g.caseLabel()
		}
		if i == chainAt {
			if g.r.Intn(2) == 0 {
				labels[0] = sigs[g.r.Intn(len(sigs))].name
			} else {
				labels[0] = "32'hFFFF_FFF0"
			}
		}
		fmt.Fprintf(&b, "%s: %s\n", strings.Join(labels, ", "), body())
	}
	b.WriteString("endcase")
	return b.String()
}

// seqStmt emits one statement of a sequential block that may write
// only the given registers (single-writer discipline) and optionally
// the memory.
func (g *netlistGen) seqStmt(owned []gsig, mem bool, depth int) string {
	sigs := g.readable(len(g.wires))
	tgt := owned[g.r.Intn(len(owned))]
	switch g.r.Intn(7) {
	case 0:
		if depth > 0 {
			cond := g.expr(sigs, 1)
			if g.r.Intn(2) == 0 {
				cond = sigs[g.r.Intn(len(sigs))].name
			}
			return fmt.Sprintf("if (%s) begin\n%s\n%s\nend else begin\n%s\nend",
				cond, g.seqStmt(owned, mem, depth-1),
				g.seqStmt(owned, mem, depth-1), g.seqStmt(owned, mem, depth-1))
		}
		return fmt.Sprintf("%s <= %s;", tgt.name, g.expr(sigs, 2))
	case 1:
		if depth > 0 {
			return g.caseStmt(sigs, func() string { return g.seqStmt(owned, mem, 0) })
		}
		return fmt.Sprintf("%s <= %s;", tgt.name, g.expr(sigs, 2))
	case 2: // bit write
		return fmt.Sprintf("%s[%s] <= %s;", tgt.name, g.expr(sigs, 0), g.expr(sigs, 1))
	case 3: // part-select write
		lo := g.r.Intn(int(tgt.width))
		hi := lo + g.r.Intn(int(tgt.width)-lo)
		return fmt.Sprintf("%s[%d:%d] <= %s;", tgt.name, hi, lo, g.expr(sigs, 1))
	case 4:
		if mem && g.memName != "" {
			return fmt.Sprintf("%s[%s] <= %s;", g.memName, g.expr(sigs, 1), g.expr(sigs, 2))
		}
		return fmt.Sprintf("%s <= %s;", tgt.name, g.expr(sigs, 2))
	case 5:
		if len(owned) >= 2 && owned[0].width+owned[1].width <= 64 {
			return fmt.Sprintf("{%s, %s} <= %s;", owned[0].name, owned[1].name, g.expr(sigs, 2))
		}
		return fmt.Sprintf("%s <= %s;", tgt.name, g.expr(sigs, 2))
	default:
		return fmt.Sprintf("%s <= %s;", tgt.name, g.expr(sigs, 2))
	}
}

// generate builds one random module. Layout: a few inputs, registers
// split across two always @(posedge) blocks (one of which may also
// own the memory), levelized assigns, and one always @(*) block that
// ends in a case.
func (g *netlistGen) generate() string {
	var b strings.Builder
	b.WriteString("module fz (\n  input wire clk")
	nin := 2 + g.r.Intn(3)
	for i := 0; i < nin; i++ {
		w := g.width()
		g.inputs = append(g.inputs, gsig{fmt.Sprintf("in%d", i), w})
		fmt.Fprintf(&b, ",\n  input wire [%d:0] in%d", w-1, i)
	}
	b.WriteString("\n);\n")
	fmt.Fprintf(&b, "  localparam LP = %d;\n", g.r.Intn(16))
	nreg := 2 + g.r.Intn(4)
	for i := 0; i < nreg; i++ {
		w := g.width()
		g.regs = append(g.regs, gsig{fmt.Sprintf("r%d", i), w})
		fmt.Fprintf(&b, "  reg [%d:0] r%d;\n", w-1, i)
	}
	if g.r.Intn(4) != 0 {
		g.memW = g.width()
		g.memD = uint(2 + g.r.Intn(15))
		g.memName = "m0"
		fmt.Fprintf(&b, "  reg [%d:0] m0 [0:%d];\n", g.memW-1, g.memD-1)
	}

	// Levelized wires: each may read inputs, regs and earlier wires.
	nwire := 2 + g.r.Intn(4)
	for i := 0; i < nwire; i++ {
		w := g.width()
		fmt.Fprintf(&b, "  wire [%d:0] w%d;\n", w-1, i)
		g.wires = append(g.wires, gsig{fmt.Sprintf("w%d", i), w})
	}
	for i := 0; i < nwire; i++ {
		fmt.Fprintf(&b, "  assign w%d = %s;\n", i, g.expr(g.readable(i), 3))
	}

	// One comb always block driving a dedicated comb reg.
	cw := g.width()
	fmt.Fprintf(&b, "  reg [%d:0] c0;\n", cw-1)
	sigs := g.readable(nwire)
	fmt.Fprintf(&b, "  always @(*) begin\n    if (%s) c0 = %s;\n    else c0 = %s;\n    %s\n  end\n",
		g.expr(sigs, 1), g.expr(sigs, 2), g.expr(sigs, 2),
		g.caseStmt(sigs, func() string { return fmt.Sprintf("c0 = %s;", g.expr(sigs, 2)) }))

	// Two seq blocks, registers split between them; the second owns
	// the memory when present.
	split := 1 + g.r.Intn(nreg-1)
	blockA, blockB := g.regs[:split], g.regs[split:]
	fmt.Fprintf(&b, "  always @(posedge clk) begin\n    %s\n    %s\n  end\n",
		g.seqStmt(blockA, false, 1), g.seqStmt(blockA, false, 1))
	if len(blockB) > 0 {
		fmt.Fprintf(&b, "  always @(posedge clk) begin\n    %s\n    %s\n  end\n",
			g.seqStmt(blockB, true, 1), g.seqStmt(blockB, true, 1))
	}
	b.WriteString("endmodule\n")
	return b.String()
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
	reached := map[string]int{} // per bc.Program.Census family: designs with one or more
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := &netlistGen{r: r}
		src := g.generate()
		si, sc := buildEngines(t, src, "fz")
		prog, err := bc.Compile(sc.design)
		if err != nil {
			t.Fatal(err)
		}
		for f, n := range prog.Census() {
			reached[f] += min(n, 1)
		}
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
			for _, in := range g.inputs {
				v := r.Uint64()
				if err := si.SetInput(in.name, v); err != nil {
					t.Fatal(err)
				}
				if err := sc.SetInput(in.name, v); err != nil {
					t.Fatal(err)
				}
			}
			// Interleave pokes: registers, wires and memory elements.
			if cycle%7 == 3 {
				tg := g.regs[r.Intn(len(g.regs))]
				v := r.Uint64()
				if err := si.Poke(tg.name, v); err != nil {
					t.Fatal(err)
				}
				if err := sc.Poke(tg.name, v); err != nil {
					t.Fatal(err)
				}
			}
			if cycle%11 == 5 {
				tg := g.wires[r.Intn(len(g.wires))]
				v := r.Uint64()
				si.Poke(tg.name, v)
				sc.Poke(tg.name, v)
			}
			if g.memName != "" && cycle%5 == 2 {
				idx := uint(r.Intn(int(g.memD)))
				v := r.Uint64()
				if err := si.PokeMem(g.memName, idx, v); err != nil {
					t.Fatal(err)
				}
				if err := sc.PokeMem(g.memName, idx, v); err != nil {
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
	// The generator must keep reaching the jump-table dispatch and
	// every operand-fused op family, or this test silently stops
	// covering them.
	for f, n := range reached {
		if n*3 < seeds {
			t.Errorf("only %d of %d designs compiled a %s op", n, seeds, f)
		}
	}
	t.Logf("designs per compiled family (of %d): %v", seeds, reached)
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
// target: seed picks a netlistGen design and script drives both
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
		g := &netlistGen{r: rand.New(rand.NewSource(seed))}
		src := g.generate()
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
				in, v := g.inputs[int(next())%len(g.inputs)], value()
				what = "drive " + in.name
				both(what, func(s *Simulator) error { return s.SetInput(in.name, v) })
			case xPoke, xPokeWire:
				sigs := g.regs
				if op == xPokeWire {
					sigs = g.wires
				}
				tg, v := sigs[int(next())%len(sigs)], value()
				what = "poke " + tg.name
				both(what, func(s *Simulator) error { return s.Poke(tg.name, v) })
			case xPokeMem:
				idx, v := uint(next()), value()
				if g.memName == "" {
					continue
				}
				idx %= g.memD
				what = fmt.Sprintf("poke %s[%d]", g.memName, idx)
				both(what, func(s *Simulator) error { return s.PokeMem(g.memName, idx, v) })
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
		g := &netlistGen{r: r}
		wa, wb, wc := g.width(), g.width(), g.width()
		g.inputs = []gsig{{"a", wa}, {"b", wb}, {"c", wc}}
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
`, wa-1, wb-1, wc-1, g.expr(g.inputs, 4))
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
	if s.Engine() != EngineCompiled {
		t.Fatalf("engine = %s, want compiled", s.Engine())
	}
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
