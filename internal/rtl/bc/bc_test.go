package bc

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"hardsnap/internal/rtl"
	"hardsnap/internal/testseed"
	"hardsnap/internal/verilog"
)

func elaborate(t *testing.T, src string) *rtl.Design {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := rtl.Elaborate(f, "m", nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return d
}

// TestCompileRejects pins the designs Compile must refuse — each
// elaborates cleanly, so sim's EngineAuto fallback is the only thing
// standing between them and a divergent compiled run. Two families:
// write-ordering patterns event-driven scheduling cannot preserve, and
// the constructs the interpreter itself faults on at run time (for the
// expression cases the test shows rtl.EvalExpr faulting on the same
// right-hand side).
func TestCompileRejects(t *testing.T) {
	cases := []struct {
		name, src, want string
		// interpFaults: comb node 0 is an assign whose RHS rtl.EvalExpr
		// must reject too.
		interpFaults bool
	}{
		{name: "register with two sequential writers", want: "register q written by multiple sequential blocks", src: `
module m(input wire clk, input wire [3:0] a, output reg [3:0] q);
  always @(posedge clk) q <= a;
  always @(posedge clk) if (a[0]) q <= 4'd0;
endmodule`},
		{name: "memory with two comb writers", want: "memory mem written by multiple comb nodes", src: `
module m(input wire [1:0] a, output wire [3:0] y);
  reg [3:0] mem [0:3];
  always @(*) mem[0] = {2'b0, a};
  always @(*) mem[1] = {a, 2'b0};
  assign y = mem[a];
endmodule`},
		{name: "memory with two sequential writers", want: "memory mem written by multiple sequential blocks", src: `
module m(input wire clk, input wire [1:0] a, output wire [3:0] y);
  reg [3:0] mem [0:3];
  always @(posedge clk) mem[0] <= {2'b0, a};
  always @(posedge clk) mem[1] <= {a, 2'b0};
  assign y = mem[a];
endmodule`},
		{name: "unknown identifier", want: `unknown identifier "ghost"`, interpFaults: true, src: `
module m(input wire [7:0] a, output wire [7:0] y);
  assign y = ghost + a;
endmodule`},
		{name: "non-constant part select", want: "not constant", interpFaults: true, src: `
module m(input wire [7:0] a, input wire [2:0] b, output wire [7:0] y);
  assign y = a[b:0];
endmodule`},
		{name: "reversed part select", want: "bad part select [0:3]", interpFaults: true, src: `
module m(input wire [7:0] a, output wire [3:0] y);
  assign y = a[0:3];
endmodule`},
		{name: "part select wider than 64 bits", want: "bad part select [70:0]", interpFaults: true, src: `
module m(input wire [7:0] a, output wire [3:0] y);
  assign y = a[70:0];
endmodule`},
		{name: "part-select lvalue out of range", want: "part-select [9:8] out of range of q", src: `
module m(input wire clk, input wire [7:0] a, output reg [3:0] q);
  always @(posedge clk) q[9:8] <= a[1:0];
endmodule`},
		{name: "reversed part-select lvalue", want: "part-select [0:1] out of range of q", src: `
module m(input wire clk, input wire [7:0] a, output reg [3:0] q);
  always @(posedge clk) q[0:1] <= a[1:0];
endmodule`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := elaborate(t, tc.src)
			_, err := Compile(d)
			if err == nil {
				t.Fatal("Compile accepted the design")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Compile error %q, want it to mention %q", err, tc.want)
			}
			if tc.interpFaults {
				node := d.Combs[0]
				if _, ierr := rtl.EvalExpr(node.Assign.RHS, node.Scope, rtl.NewState(d)); ierr == nil {
					t.Fatal("the interpreter evaluates what Compile rejected: the two no longer agree on what is an error")
				}
			}
		})
	}
}

// TestQuiescentSettleRunsNothing: after the initial full sweep a
// settled design costs zero comb-node executions per Settle, and an
// external change wakes exactly the logic that reads it.
func TestQuiescentSettleRunsNothing(t *testing.T) {
	d := elaborate(t, `
module m(input wire [7:0] a, input wire [7:0] b, output wire [7:0] ya, output wire [7:0] yb, output wire [7:0] yab);
  assign ya = a + 8'd1;
  assign yb = b + 8'd1;
  assign yab = ya ^ yb;
endmodule`)
	p, err := Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	st := rtl.NewState(d)
	e := NewEngine(p, st)
	val := func(name string) uint64 {
		t.Helper()
		sig, ok := d.SignalByName(name)
		if !ok {
			t.Fatalf("no signal %s", name)
		}
		return st.Vals[sig.ID]
	}

	e.Settle()
	if got := e.Stats().CombRuns; got != 3 {
		t.Fatalf("first Settle ran %d comb nodes, want all 3", got)
	}
	if val("ya") != 1 || val("yb") != 1 || val("yab") != 0 {
		t.Fatalf("first Settle computed ya=%d yb=%d yab=%d", val("ya"), val("yb"), val("yab"))
	}
	for i := 0; i < 5; i++ {
		e.Settle()
	}
	if got := e.Stats().CombRuns; got != 3 {
		t.Fatalf("5 quiescent Settles ran %d comb nodes, want 0", got-3)
	}

	// Drive a: its reader and the node downstream of that run, yb's
	// driver does not.
	a, _ := d.SignalByName("a")
	st.Vals[a.ID] = 4
	e.MarkSignal(a.ID)
	e.Settle()
	if got := e.Stats().CombRuns - 3; got != 2 {
		t.Fatalf("poking a ran %d comb nodes, want 2 (ya and yab)", got)
	}
	if val("ya") != 5 || val("yab") != 4 {
		t.Fatalf("after poke ya=%d yab=%d, want 5 and 4", val("ya"), val("yab"))
	}
	if got := e.Stats().Settles; got != 7 {
		t.Fatalf("Settles counter %d, want 7", got)
	}
}

func countOps(p *Program, code opcode) int {
	n := 0
	for _, nodes := range [][][]op{p.combs, p.seqs} {
		for _, ops := range nodes {
			for _, o := range ops {
				if o.code == code {
					n++
				}
			}
		}
	}
	return n
}

// TestCaseLowering pins both case dispatches against hand-computed
// outcomes: which cases get a jump table, which keep the compare
// chain, and that the table preserves first-match priority, the
// later-default rule and the no-match fall-through.
func TestCaseLowering(t *testing.T) {
	const noMatch = 0xEE // y's value when no body runs
	cases := []struct {
		name, body     string
		tables, chains int // opCaseTableL / opCaseEq ops expected
		want           map[uint64]uint64
	}{
		{name: "duplicate label: first item wins", tables: 1, body: `
      3: y = 8'd1;
      3, 4: y = 8'd2;
      4: y = 8'd3;`,
			want: map[uint64]uint64{3: 1, 4: 2}},
		{name: "hole and out-of-table subject take the default", tables: 1, body: `
      0: y = 8'd1;
      6: y = 8'd2;
      default: y = 8'd9;`,
			want: map[uint64]uint64{0: 1, 3: 9, 6: 2, 7: 9, 0xFFFF: 9}},
		{name: "hole and out-of-table subject without default run nothing", tables: 1, body: `
      0: y = 8'd1;
      6: y = 8'd2;`,
			want: map[uint64]uint64{0: 1, 3: noMatch, 6: 2, 7: noMatch, 0xFFFF: noMatch}},
		{name: "later default wins, wherever it stands", tables: 1, body: `
      default: y = 8'd7;
      1: y = 8'd1;
      default: y = 8'd8;
      2: y = 8'd2;`,
			want: map[uint64]uint64{0: 8, 1: 1, 2: 2, 5: 8}},
		{name: "localparam, sized and unsized labels share one table", tables: 1, body: `
      P: y = 8'd1;
      16'h0005: y = 8'd2;
      4'd9, 10: y = 8'd3;`,
			want: map[uint64]uint64{5: 1, 9: 3, 10: 3, 11: noMatch}},
		{name: "largest label below the cap", tables: 1, body: `
      1023: y = 8'd1;
      default: y = 8'd9;`,
			want: map[uint64]uint64{1023: 1, 1022: 9, 1024: 9}},
		{name: "signal label keeps the chain", chains: 3, body: `
      1: y = 8'd1;
      k, 2: y = 8'd2;
      default: y = 8'd9;`,
			want: map[uint64]uint64{1: 1, 2: 2, 0x21: 2, 3: 9}},
		{name: "expression label keeps the chain", chains: 2, body: `
      1: y = 8'd1;
      P + 1: y = 8'd2;`,
			want: map[uint64]uint64{1: 1, 6: 2, 5: noMatch}},
		{name: "label at the cap keeps the chain", chains: 2, body: `
      1: y = 8'd1;
      1024: y = 8'd2;`,
			want: map[uint64]uint64{1: 1, 1024: 2, 1023: noMatch}},
		{name: "default-only case has nothing to dispatch", body: `
      default: y = 8'd9;`,
			want: map[uint64]uint64{0: 9, 77: 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := elaborate(t, `
module m(input wire [15:0] s, input wire [7:0] k, output reg [7:0] y);
  localparam P = 5;
  always @(*) begin
    y = 8'hEE;
    case (s)`+tc.body+`
    endcase
  end
endmodule`)
			p, err := Compile(d)
			if err != nil {
				t.Fatal(err)
			}
			// The subject is the bare signal s, read in place by the
			// table dispatch.
			if got := len(p.caseTables); got != tc.tables || countOps(p, opCaseTableL) != tc.tables {
				t.Fatalf("%d tables, %d opCaseTableL ops, want %d of each", got, countOps(p, opCaseTableL), tc.tables)
			}
			if got := countOps(p, opCaseEq); got != tc.chains {
				t.Fatalf("%d opCaseEq ops, want %d", got, tc.chains)
			}
			st := rtl.NewState(d)
			e := NewEngine(p, st)
			s, _ := d.SignalByName("s")
			k, _ := d.SignalByName("k")
			y, _ := d.SignalByName("y")
			st.Vals[k.ID] = 0x21
			for subj, want := range tc.want {
				st.Vals[s.ID] = subj
				e.MarkSignal(s.ID)
				e.Settle()
				if got := st.Vals[y.ID]; got != want {
					t.Errorf("s=%#x: y=%#x, want %#x", subj, got, want)
				}
				// The interpreter is the oracle the expectations were
				// written from; keep the two pinned to each other.
				ist := rtl.NewState(d)
				ist.Vals[s.ID], ist.Vals[k.ID] = subj, 0x21
				if err := d.Combs[0].ExecComb(ist); err != nil {
					t.Fatal(err)
				}
				if ist.Vals[y.ID] != want {
					t.Errorf("s=%#x: interpreter y=%#x, want %#x", subj, ist.Vals[y.ID], want)
				}
			}
		})
	}
}

// TestCaseTableAllocationBounded: custom peripheral sources come from
// outside the program (periph.BuildCustom), so a huge label must cost
// what its text costs, not a table as long as its value.
func TestCaseTableAllocationBounded(t *testing.T) {
	d := elaborate(t, `
module m(input wire [31:0] s, output reg [7:0] y);
  always @(*) begin
    y = 8'd0;
    case (s)
      32'hFFFF_FFF0: y = 8'd1;
      2: y = 8'd2;
    endcase
  end
endmodule`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Compile(d)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.caseTables) != 0 || countOps(p, opCaseEq) != 2 {
		t.Fatalf("%d tables, %d opCaseEq ops, want the 2-compare chain", len(p.caseTables), countOps(p, opCaseEq))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Compile allocated %d bytes for a two-label case", got)
	}
	st := rtl.NewState(d)
	e := NewEngine(p, st)
	s, _ := d.SignalByName("s")
	y, _ := d.SignalByName("y")
	for subj, want := range map[uint64]uint64{0xFFFFFFF0: 1, 2: 2, 3: 0} {
		st.Vals[s.ID] = subj
		e.MarkSignal(s.ID)
		e.Settle()
		if got := st.Vals[y.ID]; got != want {
			t.Errorf("s=%#x: y=%d, want %d", subj, got, want)
		}
	}
}

// opcodes lists a compiled node's opcodes in order.
func opcodes(ops []op) []opcode {
	out := make([]opcode, len(ops))
	for i, o := range ops {
		out[i] = o.code
	}
	return out
}

// TestFusedShapes pins the compiled shape of each operand-fused form —
// the scan chain's shift first — and checks each against the
// interpreter over a spread of register and input values.
func TestFusedShapes(t *testing.T) {
	cases := []struct {
		name, stmt string
		want       []opcode
	}{
		{"scan shift", "r <= {r[6:0], p[7]};", []opcode{opLoadRange, opConcatBit, opNBStore}},
		{"part select of a signal", "r <= w[11:4];", []opcode{opLoadRange, opNBStore}},
		{"part select past the width is 0", "r <= p[9:8];", []opcode{opConst, opNBStore}},
		{"constant bit select", "r <= p[LP];", []opcode{opLoadBit, opNBStore}},
		{"bit select past the width is 0", "r <= p[8];", []opcode{opConst, opNBStore}},
		{"bit select past 64 is 0", "r <= p[70];", []opcode{opConst, opNBStore}},
		{"signal right operands", "r <= (((((p ^ q) & w) | q) + p) - w) == q;",
			[]opcode{opLoad, opXorL, opAndL, opOrL, opAddL, opSubL, opEqL, opNBStore}},
		{"signal right operand of !=", "r <= p != w;", []opcode{opLoad, opNeL, opNBStore}},
		{"literal and parameter right operands", "r <= ((((((p ^ 8'h5a) & LP) | 3) + 4'd9) - 1) << 2) >> LP;",
			[]opcode{opLoad, opXorK, opAndK, opOrK, opAddK, opSubK, opShlK, opShrK, opNBStore}},
		{"constant compares", "r <= {p == 8'd7, q != LP};", []opcode{opLoad, opEqK, opLoad, opNeK, opConcat, opNBStore}},
		{"shift by 64 or more keeps the stack form", "r <= p << 64;", []opcode{opLoad, opConst, opShl, opNBStore}},
		{"operators without a fused form keep the stack form", "r <= p * q;", []opcode{opLoad, opLoad, opMul, opNBStore}},
		{"concat of fused parts", "r <= {q[1:0], p, 3'b101, w[2], w[3:1], w[50]};",
			[]opcode{opLoadRange, opConcatL, opConcatK, opConcatBit, opConcatRange, opConcatK, opNBStore}},
		{"literal first part is folded and masked", "r <= {4'hff, q[3:0]};", []opcode{opConst, opConcatRange, opNBStore}},
		{"unmasked first part is masked", "r <= {(LP & p), q[3:0]};", []opcode{opConst, opAndL, opRange, opConcatRange, opNBStore}},
		{"signal condition", "if (q) r <= p; else r <= w[7:0];",
			[]opcode{opJzL, opLoad, opNBStore, opJmp, opLoadRange, opNBStore}},
		{"computed condition keeps the stack form", "if (q[0]) r <= p;", []opcode{opLoadBit, opJz, opLoad, opNBStore}},
		{"signal case subject", "case (q) 0: r <= p; 1: r <= w[7:0]; endcase",
			[]opcode{opCaseTableL, opJmp, opLoad, opNBStore, opJmp, opLoadRange, opNBStore, opJmp}},
		{"computed case subject", "case (q ^ p) 0: r <= p; endcase",
			[]opcode{opLoad, opXorL, opCaseTable, opJmp, opLoad, opNBStore, opJmp}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := elaborate(t, `
module m(input wire clk, input wire [7:0] p, input wire [3:0] q, input wire [47:0] w, output reg [7:0] r);
  localparam LP = 3;
  always @(posedge clk) `+tc.stmt+`
endmodule`)
			prog, err := Compile(d)
			if err != nil {
				t.Fatal(err)
			}
			if got := opcodes(prog.seqs[0]); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("compiled %v, want %v", got, tc.want)
			}
			st := rtl.NewState(d)
			e := NewEngine(prog, st)
			ist := rtl.NewState(d)
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 200; i++ {
				for _, sig := range d.Signals {
					v := r.Uint64() & (1<<sig.Width - 1)
					st.Vals[sig.ID], ist.Vals[sig.ID] = v, v
					e.MarkSignal(sig.ID)
				}
				var got, want []rtl.Write
				e.RunSeq(&got)
				if err := d.Seqs[0].ExecSeq(ist, &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("state %v: compiled writes %+v, interpreter %+v", ist.Vals, got, want)
				}
			}
		})
	}
}

// families names the operand-fused op families and the case jump
// table dispatches, for census.
var families = map[opcode]string{
	opCaseTable: "case-table", opCaseTableL: "case-signal",
	opLoadRange: "load-range", opLoadBit: "load-bit", opJzL: "jz-signal",
	opAddL: "binary-signal", opSubL: "binary-signal", opAndL: "binary-signal",
	opOrL: "binary-signal", opXorL: "binary-signal", opEqL: "binary-signal", opNeL: "binary-signal",
	opAddK: "binary-const", opSubK: "binary-const", opAndK: "binary-const",
	opOrK: "binary-const", opXorK: "binary-const", opEqK: "binary-const", opNeK: "binary-const",
	opShlK: "binary-const", opShrK: "binary-const",
	opConcatL: "concat-signal", opConcatBit: "concat-bit",
	opConcatRange: "concat-range", opConcatK: "concat-literal",
}

// TestGeneratedNetlistsReachFusedForms guards the differential tests
// in internal/sim (TestDifferentialFuzz, FuzzCompiledMatchesInterp):
// the testseed.Netlist designs they run on both engines, seeds 0-59,
// must each keep compiling the case jump table and every operand-fused
// op family in at least a third of the designs, or those tests
// silently stop checking them against the interpreter.
func TestGeneratedNetlistsReachFusedForms(t *testing.T) {
	const seeds = 60
	reached := map[string]int{} // per family: designs with one or more
	for _, f := range families {
		reached[f] = 0
	}
	for seed := 0; seed < seeds; seed++ {
		g := &testseed.Netlist{R: rand.New(rand.NewSource(int64(seed)))}
		src := g.Generate()
		f, err := verilog.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		d, err := rtl.Elaborate(f, "fz", nil)
		if err != nil {
			t.Fatalf("seed %d: elaborate: %v", seed, err)
		}
		prog, err := Compile(d)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		in := map[string]bool{}
		for _, nodes := range [][][]op{prog.combs, prog.seqs} {
			for _, ops := range nodes {
				for _, o := range ops {
					if f, ok := families[o.code]; ok {
						in[f] = true
					}
				}
			}
		}
		for f := range in {
			reached[f]++
		}
	}
	for f, n := range reached {
		if n*3 < seeds {
			t.Errorf("only %d of %d designs compiled a %s op", n, seeds, f)
		}
	}
	t.Logf("designs per compiled family (of %d): %v", seeds, reached)
}

// TestOpSize pins the instruction at 24 bytes: every operand form
// fits in three int32s and one uint64.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n != 24 {
		t.Fatalf("op is %d bytes, want 24", n)
	}
}
