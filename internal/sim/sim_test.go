package sim

import (
	"testing"
	"testing/quick"

	"hardsnap/internal/rtl"
	"hardsnap/internal/testseed"
	"hardsnap/internal/verilog"
)

func build(t *testing.T, src, top string) *Simulator {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := rtl.Elaborate(f, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	s, err := New(d)
	if err != nil {
		t.Fatalf("new simulator: %v", err)
	}
	return s
}

const counterSrc = `
module counter (
  input wire clk,
  input wire rst,
  input wire en,
  output reg [7:0] count,
  output wire [7:0] next
);
  assign next = count + 1;
  always @(posedge clk) begin
    if (rst)
      count <= 0;
    else if (en)
      count <= next;
  end
endmodule
`

func TestCounterCounts(t *testing.T) {
	s := build(t, counterSrc, "counter")
	mustSet := func(name string, v uint64) {
		if err := s.SetInput(name, v); err != nil {
			t.Fatal(err)
		}
	}
	mustSet("rst", 1)
	if err := s.StepCycle(); err != nil {
		t.Fatal(err)
	}
	mustSet("rst", 0)
	mustSet("en", 1)
	for i := 0; i < 10; i++ {
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := s.Peek("count"); v != 10 {
		t.Fatalf("count = %d, want 10", v)
	}
	// Comb output reflects count+1.
	if v, _ := s.Peek("next"); v != 11 {
		t.Fatalf("next = %d, want 11", v)
	}
	// Disable: no more counting.
	mustSet("en", 0)
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("count"); v != 10 {
		t.Fatalf("count after disable = %d", v)
	}
	if s.cycles != 16 {
		t.Fatalf("cycles = %d", s.cycles)
	}
}

func TestCounterWraps(t *testing.T) {
	s := build(t, counterSrc, "counter")
	s.SetInput("en", 1)
	if err := s.Run(256); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("count"); v != 0 {
		t.Fatalf("count after 256 = %d, want wrap to 0", v)
	}
}

const fifoSrc = `
module fifo (
  input wire clk,
  input wire rst,
  input wire push,
  input wire pop,
  input wire [7:0] din,
  output wire [7:0] dout,
  output wire empty,
  output wire full,
  output wire [4:0] fill
);
  reg [7:0] mem [0:15];
  reg [3:0] rptr;
  reg [3:0] wptr;
  reg [4:0] count;
  assign dout = mem[rptr];
  assign empty = (count == 0);
  assign full = (count == 16);
  assign fill = count;
  always @(posedge clk) begin
    if (rst) begin
      rptr <= 0;
      wptr <= 0;
      count <= 0;
    end else begin
      if (push && !full) begin
        mem[wptr] <= din;
        wptr <= wptr + 1;
      end
      if (pop && !empty) begin
        rptr <= rptr + 1;
      end
      if (push && !full && !(pop && !empty))
        count <= count + 1;
      else if (pop && !empty && !(push && !full))
        count <= count - 1;
    end
  end
endmodule
`

func TestFIFO(t *testing.T) {
	s := build(t, fifoSrc, "fifo")
	s.SetInput("rst", 1)
	s.StepCycle()
	s.SetInput("rst", 0)

	// Push 3 values.
	for i, v := range []uint64{0xAA, 0xBB, 0xCC} {
		s.SetInput("push", 1)
		s.SetInput("din", v)
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
		if fill, _ := s.Peek("fill"); fill != uint64(i+1) {
			t.Fatalf("fill = %d after %d pushes", fill, i+1)
		}
	}
	s.SetInput("push", 0)

	// Pop them back in order.
	for _, want := range []uint64{0xAA, 0xBB, 0xCC} {
		if v, _ := s.Peek("dout"); v != want {
			t.Fatalf("dout = %#x, want %#x", v, want)
		}
		s.SetInput("pop", 1)
		if err := s.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
	s.SetInput("pop", 0)
	if v, _ := s.Peek("empty"); v != 1 {
		t.Fatal("fifo should be empty")
	}
}

func TestFIFOFullBackpressure(t *testing.T) {
	s := build(t, fifoSrc, "fifo")
	s.SetInput("rst", 1)
	s.StepCycle()
	s.SetInput("rst", 0)
	s.SetInput("push", 1)
	s.SetInput("din", 7)
	for i := 0; i < 20; i++ {
		s.StepCycle()
	}
	if v, _ := s.Peek("full"); v != 1 {
		t.Fatal("fifo should be full")
	}
	if v, _ := s.Peek("fill"); v != 16 {
		t.Fatalf("fill = %d, want 16", v)
	}
}

func TestSnapshotRestoreIdentity(t *testing.T) {
	s := build(t, fifoSrc, "fifo")
	s.SetInput("rst", 1)
	s.StepCycle()
	s.SetInput("rst", 0)
	s.SetInput("push", 1)
	for i := 0; i < 5; i++ {
		s.SetInput("din", uint64(i*17))
		s.StepCycle()
	}
	s.SetInput("push", 0)

	snap := s.Snapshot()

	// Diverge: pop everything.
	s.SetInput("pop", 1)
	for i := 0; i < 10; i++ {
		s.StepCycle()
	}
	if v, _ := s.Peek("empty"); v != 1 {
		t.Fatal("should be empty after pops")
	}

	// Restore and verify we are back.
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("fill"); v != 5 {
		t.Fatalf("fill after restore = %d, want 5", v)
	}
	if v, _ := s.Peek("dout"); v != 0 {
		t.Fatalf("dout after restore = %#x, want 0 (first pushed value)", v)
	}
	// Continue execution: pop all five in order.
	s.SetInput("pop", 1)
	for _, want := range []uint64{0, 17, 34, 51, 68} {
		if v, _ := s.Peek("dout"); v != want {
			t.Fatalf("dout = %d, want %d", v, want)
		}
		s.StepCycle()
	}
}

// TestSnapshotRoundTripProperty: restoring a snapshot and re-snapshotting
// yields the identical snapshot, from arbitrary reachable states.
func TestSnapshotRoundTripProperty(t *testing.T) {
	s := build(t, fifoSrc, "fifo")
	f := func(ops []byte) bool {
		s.SetInput("rst", 1)
		s.StepCycle()
		s.SetInput("rst", 0)
		for _, op := range ops {
			s.SetInput("push", uint64(op)&1)
			s.SetInput("pop", uint64(op)>>1&1)
			s.SetInput("din", uint64(op))
			s.StepCycle()
		}
		snap1 := s.Snapshot()
		if err := s.Restore(snap1); err != nil {
			return false
		}
		snap2 := s.Snapshot()
		if len(snap1.Regs) != len(snap2.Regs) {
			return false
		}
		for k, v := range snap1.Regs {
			if snap2.Regs[k] != v {
				return false
			}
		}
		for k, v := range snap1.Mems {
			for i := range v {
				if snap2.Mems[k][i] != v[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsForeignState(t *testing.T) {
	s := build(t, counterSrc, "counter")
	snap := s.Snapshot()
	snap.Regs["ghost.reg"] = 1
	if err := s.Restore(snap); err == nil {
		t.Fatal("restore with unknown register must fail")
	}
}

func TestPokeRegister(t *testing.T) {
	s := build(t, counterSrc, "counter")
	if err := s.Poke("count", 200); err != nil {
		t.Fatal(err)
	}
	if err := s.EvalComb(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Peek("next"); v != 201 {
		t.Fatalf("next = %d after poke", v)
	}
}

func TestHierarchicalSim(t *testing.T) {
	src := counterSrc + `
module pair (
  input wire clk,
  input wire rst,
  output wire [7:0] a,
  output wire [7:0] b
);
  wire [7:0] na;
  wire [7:0] nb;
  counter c0 (.clk(clk), .rst(rst), .en(1'b1), .count(a), .next(na));
  counter c1 (.clk(clk), .rst(rst), .en(1'b0), .count(b), .next(nb));
endmodule
`
	s := build(t, src, "pair")
	s.SetInput("rst", 1)
	s.StepCycle()
	s.SetInput("rst", 0)
	s.Run(7)
	if v, _ := s.Peek("a"); v != 7 {
		t.Fatalf("a = %d", v)
	}
	if v, _ := s.Peek("b"); v != 0 {
		t.Fatalf("b = %d (en=0)", v)
	}
	if v, _ := s.Peek("c0.count"); v != 7 {
		t.Fatalf("c0.count = %d", v)
	}
}

func TestAlwaysCombBlock(t *testing.T) {
	src := `
module alu (
  input wire clk,
  input wire [1:0] op,
  input wire [7:0] a,
  input wire [7:0] b,
  output reg [7:0] y
);
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a - b;
      2'd2: y = a & b;
      default: y = a ^ b;
    endcase
  end
endmodule
`
	s := build(t, src, "alu")
	s.SetInput("a", 0xF0)
	s.SetInput("b", 0x0F)
	cases := []struct {
		op   uint64
		want uint64
	}{{0, 0xFF}, {1, 0xE1}, {2, 0x00}, {3, 0xFF}}
	for _, tc := range cases {
		s.SetInput("op", tc.op)
		if err := s.EvalComb(); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.Peek("y"); v != tc.want {
			t.Fatalf("op %d: y = %#x, want %#x", tc.op, v, tc.want)
		}
	}
}

func TestPartSelectWrite(t *testing.T) {
	src := `
module ps (
  input wire clk,
  input wire sel,
  input wire [3:0] nib,
  output reg [7:0] out
);
  always @(posedge clk) begin
    if (sel)
      out[7:4] <= nib;
    else
      out[3:0] <= nib;
  end
endmodule
`
	s := build(t, src, "ps")
	s.SetInput("sel", 0)
	s.SetInput("nib", 0xA)
	s.StepCycle()
	s.SetInput("sel", 1)
	s.SetInput("nib", 0x5)
	s.StepCycle()
	if v, _ := s.Peek("out"); v != 0x5A {
		t.Fatalf("out = %#x, want 0x5A", v)
	}
}

func TestConcatAssignment(t *testing.T) {
	src := `
module cc (
  input wire clk,
  input wire [7:0] in,
  output reg [3:0] hi,
  output reg [3:0] lo
);
  always @(posedge clk)
    {hi, lo} <= in;
endmodule
`
	s := build(t, src, "cc")
	s.SetInput("in", 0xC3)
	s.StepCycle()
	h, _ := s.Peek("hi")
	l, _ := s.Peek("lo")
	if h != 0xC || l != 0x3 {
		t.Fatalf("hi=%x lo=%x", h, l)
	}
}

func TestOnCycleHook(t *testing.T) {
	s := build(t, counterSrc, "counter")
	var seen []uint64
	s.OnCycle = func(c uint64) { seen = append(seen, c) }
	s.Run(3)
	if len(seen) != 3 || seen[2] != 3 {
		t.Fatalf("hook calls: %v", seen)
	}
}

func TestPeekPokeMem(t *testing.T) {
	s := build(t, fifoSrc, "fifo")
	if err := s.PokeMem("mem", 3, 0x7E); err != nil {
		t.Fatal(err)
	}
	v, err := s.PeekMem("mem", 3)
	if err != nil || v != 0x7E {
		t.Fatalf("peekmem: %v %v", v, err)
	}
	if _, err := s.PeekMem("mem", 999); err == nil {
		t.Fatal("oob peek must fail")
	}
	if err := s.PokeMem("mem", 999, 0); err == nil {
		t.Fatal("oob poke must fail")
	}
	if _, err := s.PeekMem("ghost", 0); err == nil {
		t.Fatal("unknown memory must fail")
	}
	if err := s.PokeMem("ghost", 0, 0); err == nil {
		t.Fatal("unknown memory must fail")
	}
}

func TestInputValidation(t *testing.T) {
	s := build(t, counterSrc, "counter")
	if err := s.SetInput("count", 1); err == nil {
		t.Fatal("SetInput on non-input must fail")
	}
	if err := s.SetInput("ghost", 1); err == nil {
		t.Fatal("SetInput on unknown signal must fail")
	}
	if _, err := s.Peek("ghost"); err == nil {
		t.Fatal("Peek unknown must fail")
	}
	if err := s.Poke("ghost", 1); err == nil {
		t.Fatal("Poke unknown must fail")
	}
}
