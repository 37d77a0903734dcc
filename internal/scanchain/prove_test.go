package scanchain_test

import (
	"fmt"
	"strings"
	"testing"

	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/verilog"
)

// corpusBuild is one scan-instrumented corpus build the FPGA target
// makes: every corpus peripheral at its default parameters, plus the
// register file at the depths BenchmarkScanSweep sweeps.
type corpusBuild struct {
	name   string
	kind   string
	params map[string]uint64
}

func corpusBuilds() []corpusBuild {
	var out []corpusBuild
	for _, kind := range []string{"gpio", "timer", "crc32", "uart", "spi", "aes128"} {
		out = append(out, corpusBuild{kind, kind, nil})
	}
	for _, depth := range []uint64{16, 64, 256} {
		out = append(out, corpusBuild{fmt.Sprintf("regfile-%d", depth), "regfile",
			map[string]uint64{"DEPTH": depth, "WIDTH": 32}})
	}
	return out
}

func buildCorpus(tb testing.TB, c corpusBuild) (*rtl.Design, []scanchain.BitRef) {
	tb.Helper()
	spec, _ := periph.Lookup(c.kind)
	d, reports, err := periph.Build(c.kind, c.params, true)
	if err != nil {
		tb.Fatal(err)
	}
	layout, err := scanchain.Layout(reports, spec.Top)
	if err != nil {
		tb.Fatal(err)
	}
	return d, layout
}

// TestCorpusShiftProven: the instrumentation pass's output is proven
// a shift register on every corpus peripheral, so the FPGA target
// copies their state instead of clocking it. An evaluator regression
// fails here rather than silently sending a peripheral back to the
// netlist shift.
func TestCorpusShiftProven(t *testing.T) {
	for _, c := range corpusBuilds() {
		d, layout := buildCorpus(t, c)
		if err := scanchain.ProveShift(d, layout); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestHierarchicalShiftProven: a chain daisy-chained through child
// instances is proven through the scan-port bindings, which the
// evaluator reads as continuous assigns.
func TestHierarchicalShiftProven(t *testing.T) {
	const src = `
module leaf (input wire clk, input wire [3:0] d, input wire we, output reg [3:0] q);
  always @(posedge clk)
    if (we) q <= d;
endmodule

module pair (input wire clk, input wire [3:0] d, input wire we, output wire [3:0] q1);
  reg [1:0] mode;
  wire [3:0] q0;
  leaf l0 (.clk(clk), .d(d), .we(we), .q(q0));
  leaf l1 (.clk(clk), .d(q0), .we(we), .q(q1));
  always @(posedge clk)
    if (we) mode <= mode + 1;
endmodule
`
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := scanchain.InstrumentAll(f, "pair", scanchain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(f, "pair", nil)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := scanchain.Layout(reports, "pair")
	if err != nil {
		t.Fatal(err)
	}
	if err := scanchain.ProveShift(d, layout); err != nil {
		t.Fatal(err)
	}
	// Excluding a register leaves it out of the chain, so the chain no
	// longer covers the state and the shift is not proven.
	f, _ = verilog.Parse(src)
	reports, err = scanchain.InstrumentAll(f, "pair", scanchain.Options{Exclude: []string{"mode"}})
	if err != nil {
		t.Fatal(err)
	}
	if d, err = rtl.Elaborate(f, "pair", nil); err != nil {
		t.Fatal(err)
	}
	layout, _ = scanchain.Layout(reports, "pair")
	if err := scanchain.ProveShift(d, layout); err == nil || !strings.Contains(err.Error(), "covers 8 of 10 state bits") {
		t.Fatalf("chain without mode: got %v, want it refused for covering 8 of 10 state bits", err)
	}
}

// handChain is a module that already has scan ports, written the way
// the pass would write it: a[0..3], b[0..1], then m[0] and m[1] (two
// bits each) in chain order. Each case below edits one line of it.
const handChain = `
module dev (
  input wire clk, input wire scan_enable, input wire scan_in,
  output wire scan_out, input wire [3:0] d
);
  reg [3:0] a;
  reg [1:0] b;
  reg [1:0] m [0:1];
  always @(posedge clk)
    if (scan_enable) begin
      a <= {a[2:0], scan_in};
      b <= {b[0], a[3]};
      m[0] <= {m[0][0], b[1]};
      m[1] <= {m[1][0], m[0][1]};
    end else begin
      a <= d;
      b <= b + 1;
      m[d[0]] <= d[1:0];
    end
  assign scan_out = m[1][1];
endmodule
`

func handLayout() []scanchain.BitRef {
	var l []scanchain.BitRef
	for b := uint(0); b < 4; b++ {
		l = append(l, scanchain.BitRef{Name: "a", Bit: b})
	}
	for b := uint(0); b < 2; b++ {
		l = append(l, scanchain.BitRef{Name: "b", Bit: b})
	}
	for w := uint(0); w < 2; w++ {
		for b := uint(0); b < 2; b++ {
			l = append(l, scanchain.BitRef{Name: "m", IsMem: true, Index: w, Bit: b})
		}
	}
	return l
}

// TestShiftRefused: designs with scan ports, elaborated without the
// pass, whose scan branch is not a shift of the chain (or is not one
// the evaluator can see) are refused, each with an error naming the
// first chain position, or the pin, where the obligation fails; an
// edit that keeps the shift is proven.
func TestShiftRefused(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new string
		want     string
	}{
		{"as the pass writes it", "", "", ""},
		{"two chain bits swapped",
			"a <= {a[2:0], scan_in};", "a <= {a[1], a[2], a[0], scan_in};",
			"chain position 2 (a[2]): next value is ((_ extract 2 2) a), want ((_ extract 1 1) a)"},
		{"a register not shifted",
			"b <= {b[0], a[3]};", "",
			"chain position 4 (b[0]): next value is ((_ extract 0 0) b), want ((_ extract 3 3) a)"},
		{"scan_out tapped from the wrong bit",
			"assign scan_out = m[1][1];", "assign scan_out = m[1][0];",
			"scan_out is ((_ extract 0 0) m[1]), want the last chain position ((_ extract 1 1) m[1])"},
		{"a memory word written at a non-constant index",
			"m[1] <= {m[1][0], m[0][1]};", "m[d[0]] <= {m[1][0], m[0][1]};",
			"chain position 6 (m[0][0]): unsupported by the symbolic evaluator: index that is not constant"},
		{"an operator that leaves the bit as it is",
			"b <= {b[0], a[3]};", "b <= {b[0], a[3] ^ 1'b0};", ""},
		{"a memory word read at a non-constant index",
			"b <= {b[0], a[3]};", "b <= {b[0], m[d[0]][0]};",
			"chain position 4 (b[0]): unsupported by the symbolic evaluator: index that is not constant"},
		{"a branch on a signal",
			"if (scan_enable) begin", "if (scan_enable && d[0]) begin",
			"chain position 0 (a[0]): next value is a 1-bit extract term, want scan_in"},
	} {
		src := handChain
		if tc.old != "" {
			if !strings.Contains(src, tc.old) {
				t.Fatalf("%s: %q not in the module", tc.name, tc.old)
			}
			src = strings.Replace(src, tc.old, tc.new, 1)
		}
		f, err := verilog.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d, err := rtl.Elaborate(f, "dev", nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err = scanchain.ProveShift(d, handLayout())
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// BenchmarkScanProof measures one proof per corpus build, as the
// FPGA target runs it for each scan-instrumented peripheral it builds.
func BenchmarkScanProof(b *testing.B) {
	for _, c := range corpusBuilds() {
		b.Run(c.name, func(b *testing.B) {
			d, layout := buildCorpus(b, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := scanchain.ProveShift(d, layout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
