package rtl

import (
	"testing"
	"testing/quick"

	"hardsnap/internal/testseed"
	"hardsnap/internal/verilog"
)

// buildEvalEnv elaborates a module exposing a rich set of signals and
// returns a scope-equipped design for direct expression evaluation.
func buildEvalEnv(t *testing.T) (*Design, *Scope, *State) {
	t.Helper()
	src := `
module env (
  input wire clk,
  input wire [15:0] a,
  input wire [15:0] b,
  input wire c,
  output reg [15:0] q
);
  reg [7:0] mem [0:3];
  always @(posedge clk) begin
    q <= a;
    mem[0] <= a[7:0];
  end
endmodule
`
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(f, "env", nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, d.EvalScope(), NewState(d)
}

func setSig(t *testing.T, d *Design, st *State, name string, v uint64) {
	t.Helper()
	sig, ok := d.SignalByName(name)
	if !ok {
		t.Fatalf("no signal %s", name)
	}
	st.Vals[sig.ID] = v
}

func evalStr(t *testing.T, scope *Scope, st *State, src string) uint64 {
	t.Helper()
	e, err := verilog.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := EvalExpr(e, scope, st)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalExprOperators(t *testing.T) {
	d, scope, st := buildEvalEnv(t)
	setSig(t, d, st, "a", 0x00F3)
	setSig(t, d, st, "b", 0x0011)
	setSig(t, d, st, "c", 1)

	cases := []struct {
		src  string
		want uint64
	}{
		{"a + b", 0x104},
		{"a - b", 0xE2},
		{"a * b", 0x00F3 * 0x11 & 0xFFFF},
		{"a / b", 0xE},
		{"a % b", 0x00F3 % 0x11},
		{"a & b", 0x11},
		{"a | b", 0xF3},
		{"a ^ b", 0xE2},
		{"~a", 0xFF0C},
		{"-b", 0xFFEF},
		{"!a", 0},
		{"!(a - a)", 1},
		{"a << 4", 0x0F30},
		{"a >> 4", 0x000F},
		{"a == b", 0},
		{"a != b", 1},
		{"a < b", 0},
		{"a <= a", 1},
		{"a > b", 1},
		{"a >= b", 1},
		{"a && b", 1},
		{"a || 0", 1},
		{"c ? a : b", 0xF3},
		{"(!c) ? a : b", 0x11}, // c==1 -> else branch
		{"a[7:4]", 0xF},
		{"a[1]", 1},
		{"a[2]", 0},
		{"{a[7:0], b[7:0]}", 0xF311},
		{"{2{a[3:0]}}", 0x33},
		{"&a[1:0]", 1},
		{"|a", 1},
		{"^b[4:0]", 1}, // 0x11 has two bits set -> parity 0? 0x11=10001 -> 2 bits -> 0
	}
	for _, tc := range cases {
		got := evalStr(t, scope, st, tc.src)
		if tc.src == "^b[4:0]" {
			// parity of 0b10001 = 0 (two ones).
			if got != 0 {
				t.Errorf("%s = %d, want 0", tc.src, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s = %#x, want %#x", tc.src, got, tc.want)
		}
	}
}

func TestEvalExprDivModZero(t *testing.T) {
	d, scope, st := buildEvalEnv(t)
	setSig(t, d, st, "a", 77)
	setSig(t, d, st, "b", 0)
	if got := evalStr(t, scope, st, "a / b"); got != 0xFFFF {
		t.Fatalf("div by zero = %#x", got)
	}
	if got := evalStr(t, scope, st, "a % b"); got != 77 {
		t.Fatalf("mod by zero = %d", got)
	}
}

func TestEvalExprMemoryRead(t *testing.T) {
	d, scope, st := buildEvalEnv(t)
	m, _ := d.MemoryByName("mem")
	st.Mems[m.ID][2] = 0xAB
	setSig(t, d, st, "b", 2)
	if got := evalStr(t, scope, st, "mem[2]"); got != 0xAB {
		t.Fatalf("mem const index: %#x", got)
	}
	if got := evalStr(t, scope, st, "mem[b]"); got != 0xAB {
		t.Fatalf("mem dynamic index: %#x", got)
	}
	// Out-of-range reads return zero (two-state convention).
	if got := evalStr(t, scope, st, "mem[9]"); got != 0 {
		t.Fatalf("oob read: %#x", got)
	}
}

func TestEvalExprErrors(t *testing.T) {
	_, scope, st := buildEvalEnv(t)
	for _, src := range []string{
		"ghost",
		"ghost + 1",
		"a[b:0]", // non-constant part select
	} {
		e, err := verilog.ParseExpr(src)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := EvalExpr(e, scope, st); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestStateClone(t *testing.T) {
	d, _, st := buildEvalEnv(t)
	setSig(t, d, st, "a", 42)
	m, _ := d.MemoryByName("mem")
	st.Mems[m.ID][1] = 7
	c := st.Clone()
	setSig(t, d, st, "a", 1)
	st.Mems[m.ID][1] = 9
	sig, _ := d.SignalByName("a")
	if c.Vals[sig.ID] != 42 || c.Mems[m.ID][1] != 7 {
		t.Fatal("clone aliases original")
	}
}

func TestWriteApplyMasking(t *testing.T) {
	d, _, st := buildEvalEnv(t)
	sig, _ := d.SignalByName("q")
	st.Vals[sig.ID] = 0xFFFF
	w := Write{ID: int32(sig.ID), Mask: 0x00F0, Val: 0x0050}
	w.Apply(st)
	if st.Vals[sig.ID] != 0xFF5F {
		t.Fatalf("partial write: %#x", st.Vals[sig.ID])
	}
	m, _ := d.MemoryByName("mem")
	mw := Write{ID: int32(m.ID), Mem: true, Mask: 0xFF, Idx: 3, Val: 0x1FF} // masked to 8 bits
	mw.Apply(st)
	if st.Mems[m.ID][3] != 0xFF {
		t.Fatalf("mem write: %#x", st.Mems[m.ID][3])
	}
	// Out-of-range memory writes are dropped.
	oob := Write{ID: int32(m.ID), Mem: true, Mask: 0xFF, Idx: 99, Val: 1}
	oob.Apply(st)
}

func TestWidthOfQuick(t *testing.T) {
	_, scope, _ := buildEvalEnv(t)
	cases := map[string]uint{
		"a":               16,
		"a + b":           16,
		"a == b":          1,
		"a && b":          1,
		"~c":              1,
		"{a, b}":          32,
		"{2{c}}":          2,
		"a[11:4]":         8,
		"a[0]":            1,
		"mem[0]":          8,
		"c ? a : b":       16,
		"a << 2":          16,
		"&a":              1,
		"17":              32,
		"4'hF":            4,
		"a + 8'h1":        16,
		"(a > b) + 16'h1": 16,
	}
	for src, want := range cases {
		e, err := verilog.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		w, err := WidthOf(e, scope)
		if err != nil {
			t.Fatalf("width %q: %v", src, err)
		}
		if w != want {
			t.Errorf("WidthOf(%q) = %d, want %d", src, w, want)
		}
	}
}

// TestEvalQuickArith cross-checks +,-,&,| over random 16-bit values.
func TestEvalQuickArith(t *testing.T) {
	d, scope, st := buildEvalEnv(t)
	add, _ := verilog.ParseExpr("a + b")
	sub, _ := verilog.ParseExpr("a - b")
	and, _ := verilog.ParseExpr("a & b")
	or, _ := verilog.ParseExpr("a | b")
	f := func(av, bv uint16) bool {
		setSig(t, d, st, "a", uint64(av))
		setSig(t, d, st, "b", uint64(bv))
		g := func(e verilog.Expr) uint64 { v, _ := EvalExpr(e, scope, st); return v }
		return g(add) == uint64(av+bv) && g(sub) == uint64(av-bv) &&
			g(and) == uint64(av&bv) && g(or) == uint64(av|bv)
	}
	if err := quick.Check(f, testseed.Quick(t, 2000)); err != nil {
		t.Fatal(err)
	}
}
