package bc

import (
	"strings"
	"testing"

	"hardsnap/internal/rtl"
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
