package scanchain

import (
	"slices"
	"strings"
	"testing"

	"hardsnap/internal/rtl"
	"hardsnap/internal/sim"
	"hardsnap/internal/verilog"
)

const counterSrc = `
module counter (
  input wire clk,
  input wire rst,
  input wire en,
  output reg [7:0] count,
  output reg [3:0] flags
);
  always @(posedge clk) begin
    if (rst) begin
      count <= 0;
      flags <= 0;
    end else if (en) begin
      count <= count + 1;
      flags <= count[3:0];
    end
  end
endmodule
`

// instrument instruments one leaf module through InstrumentAll and
// returns its report.
func instrument(f *verilog.SourceFile, top string, opts Options) (*Report, error) {
	reports, err := InstrumentAll(f, top, opts)
	return reports[top], err
}

func mustParse(t *testing.T, src string) *verilog.SourceFile {
	t.Helper()
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func buildSim(t *testing.T, f *verilog.SourceFile, top string) *sim.Simulator {
	t.Helper()
	d, err := rtl.Elaborate(f, top, nil)
	if err != nil {
		t.Fatalf("elaborate: %v\n%s", err, verilog.Print(f))
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return s
}

func TestInstrumentAddsPorts(t *testing.T) {
	f := mustParse(t, counterSrc)
	r, err := instrument(f, "counter", Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := f.FindModule("counter")
	var found int
	for _, p := range m.Ports {
		switch p.Name {
		case "scan_enable", "scan_in", "scan_out":
			found++
		}
	}
	if found != 3 {
		t.Fatalf("scan ports: %d", found)
	}
	if r.ChainBits != 12 {
		t.Fatalf("chain bits: %d, want 12", r.ChainBits)
	}
	if len(r.Elements) != 2 {
		t.Fatalf("elements: %+v", r.Elements)
	}
	if r.Overhead() <= 0 {
		t.Fatalf("overhead: %v", r.Overhead())
	}
}

func TestInstrumentedStillParsesAndElaborates(t *testing.T) {
	f := mustParse(t, counterSrc)
	if _, err := instrument(f, "counter", Options{}); err != nil {
		t.Fatal(err)
	}
	text := verilog.Print(f)
	f2 := mustParse(t, text)
	buildSim(t, f2, "counter")
}

func TestNormalOperationUnaffected(t *testing.T) {
	plain := buildSim(t, mustParse(t, counterSrc), "counter")

	f := mustParse(t, counterSrc)
	if _, err := instrument(f, "counter", Options{}); err != nil {
		t.Fatal(err)
	}
	inst := buildSim(t, f, "counter")
	inst.SetInput("scan_enable", 0)

	for _, s := range []*sim.Simulator{plain, inst} {
		s.SetInput("rst", 1)
		s.StepCycle()
		s.SetInput("rst", 0)
		s.SetInput("en", 1)
		s.Run(37)
	}
	pv, _ := plain.Peek("count")
	iv, _ := inst.Peek("count")
	if pv != iv || pv != 37 {
		t.Fatalf("plain %d vs instrumented %d", pv, iv)
	}
}

// scanCycle shifts one bit through the chain, returning the bit that
// fell out of scan_out before the clock edge.
func scanCycle(t *testing.T, s *sim.Simulator, in uint64) uint64 {
	t.Helper()
	if err := s.SetInput("scan_in", in); err != nil {
		t.Fatal(err)
	}
	if err := s.EvalComb(); err != nil {
		t.Fatal(err)
	}
	out, err := s.Peek("scan_out")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepCycle(); err != nil {
		t.Fatal(err)
	}
	return out
}

// stateWords is the part of hw a scan chain carries: every register
// and memory word, without the input pins.
func stateWords(hw *sim.HWState) []uint64 {
	return hw.Vals()[:len(hw.Vals())-len(hw.Layout().Inputs)]
}

func TestScanSaveRestore(t *testing.T) {
	f := mustParse(t, counterSrc)
	r, err := instrument(f, "counter", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := buildSim(t, f, "counter")

	// Drive to an interesting state.
	s.SetInput("scan_enable", 0)
	s.SetInput("rst", 1)
	s.StepCycle()
	s.SetInput("rst", 0)
	s.SetInput("en", 1)
	s.Run(0xA7)
	want := s.Snapshot()

	// Save: shift the whole chain out (state is destroyed).
	s.SetInput("en", 0)
	s.SetInput("scan_enable", 1)
	n := r.ChainBits
	bits := make([]uint64, 0, n)
	for i := uint(0); i < n; i++ {
		bits = append(bits, scanCycle(t, s, 0))
	}
	if v, _ := s.Peek("count"); v != 0 {
		t.Fatalf("state should be flushed after full scan, count=%#x", v)
	}

	// Restore: feed the captured bit stream back in the same order.
	for _, b := range bits {
		scanCycle(t, s, b)
	}
	s.SetInput("scan_enable", 0)
	if got := stateWords(s.Snapshot()); !slices.Equal(got, stateWords(want)) {
		t.Fatalf("registers after the shift %#x, want %#x", got, stateWords(want))
	}

	// And the design keeps running correctly from the restored state.
	s.SetInput("en", 1)
	s.StepCycle()
	if v, _ := s.Peek("count"); v != 0xA8 {
		t.Fatalf("count after resume: %#x", v)
	}
}

const fifoSrc = `
module sfifo (
  input wire clk,
  input wire rst,
  input wire push,
  input wire [7:0] din,
  output wire [7:0] head
);
  reg [7:0] mem [0:7];
  reg [2:0] wptr;
  assign head = mem[0];
  always @(posedge clk) begin
    if (rst)
      wptr <= 0;
    else if (push) begin
      mem[wptr] <= din;
      wptr <= wptr + 1;
    end
  end
endmodule
`

func TestScanThroughMemory(t *testing.T) {
	f := mustParse(t, fifoSrc)
	r, err := instrument(f, "sfifo", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ChainBits != 8*8+3 {
		t.Fatalf("chain bits: %d", r.ChainBits)
	}
	s := buildSim(t, f, "sfifo")
	s.SetInput("rst", 1)
	s.StepCycle()
	s.SetInput("rst", 0)
	for i := 0; i < 5; i++ {
		s.SetInput("push", 1)
		s.SetInput("din", uint64(0x30+i))
		s.StepCycle()
	}
	s.SetInput("push", 0)
	want := s.Snapshot()

	s.SetInput("scan_enable", 1)
	bits := make([]uint64, 0, r.ChainBits)
	for i := uint(0); i < r.ChainBits; i++ {
		bits = append(bits, scanCycle(t, s, 0))
	}
	for _, b := range bits {
		scanCycle(t, s, b)
	}
	s.SetInput("scan_enable", 0)
	if got := stateWords(s.Snapshot()); !slices.Equal(got, stateWords(want)) {
		t.Fatalf("registers and memory words after the shift %#x, want %#x", got, stateWords(want))
	}
}

const hierSrc = `
module leaf (
  input wire clk,
  input wire [3:0] d,
  input wire we,
  output reg [3:0] q
);
  always @(posedge clk)
    if (we) q <= d;
endmodule

module pair (
  input wire clk,
  input wire [3:0] d,
  input wire we,
  output wire [3:0] q0,
  output wire [3:0] q1
);
  reg [1:0] mode;
  leaf l0 (.clk(clk), .d(d), .we(we), .q(q0));
  leaf l1 (.clk(clk), .d(q0), .we(we), .q(q1));
  always @(posedge clk)
    if (we) mode <= mode + 1;
endmodule
`

func TestHierarchicalDaisyChain(t *testing.T) {
	f := mustParse(t, hierSrc)
	reports, err := InstrumentAll(f, "pair", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reports["leaf"].ChainBits != 4 {
		t.Fatalf("leaf chain: %d", reports["leaf"].ChainBits)
	}
	if reports["pair"].ChainBits != 2 {
		t.Fatalf("pair local chain: %d", reports["pair"].ChainBits)
	}

	s := buildSim(t, f, "pair")
	s.SetInput("we", 1)
	s.SetInput("d", 0x9)
	s.StepCycle()
	s.SetInput("d", 0x6)
	s.StepCycle()
	s.SetInput("we", 0)
	want := s.Snapshot()

	// Total chain = 2 (mode) + 4 + 4 (leaves).
	total := uint(10)
	s.SetInput("scan_enable", 1)
	bits := make([]uint64, 0, total)
	for i := uint(0); i < total; i++ {
		bits = append(bits, scanCycle(t, s, 0))
	}
	for _, b := range bits {
		scanCycle(t, s, b)
	}
	s.SetInput("scan_enable", 0)
	if got := stateWords(s.Snapshot()); !slices.Equal(got, stateWords(want)) {
		t.Fatalf("registers %v after the shift %#x, want %#x", want.Layout().Regs, got, stateWords(want))
	}
}

func TestExclusion(t *testing.T) {
	f := mustParse(t, counterSrc)
	r, err := instrument(f, "counter", Options{Exclude: []string{"flags"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.ChainBits != 8 {
		t.Fatalf("chain bits with exclusion: %d", r.ChainBits)
	}
}

func TestDoubleInstrumentRejected(t *testing.T) {
	f := mustParse(t, counterSrc)
	if _, err := instrument(f, "counter", Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := instrument(f, "counter", Options{}); err == nil ||
		!strings.Contains(err.Error(), "already instrumented") {
		t.Fatalf("want already-instrumented error, got %v", err)
	}
}

func TestParametricMemoryDepth(t *testing.T) {
	src := `
module regfile #(parameter DEPTH = 4) (
  input wire clk,
  input wire we,
  input wire [7:0] waddr,
  input wire [15:0] wdata,
  output wire [15:0] rdata0
);
  reg [15:0] file [0:DEPTH-1];
  assign rdata0 = file[0];
  always @(posedge clk)
    if (we) file[waddr] <= wdata;
endmodule
`
	f := mustParse(t, src)
	r, err := instrument(f, "regfile", Options{Params: map[string]uint64{"DEPTH": 16}})
	if err != nil {
		t.Fatal(err)
	}
	if r.ChainBits != 16*16 {
		t.Fatalf("chain bits: %d, want 256", r.ChainBits)
	}
}
