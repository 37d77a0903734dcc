package testseed

import (
	"fmt"
	"math/rand"
	"strings"
)

// Signal is one input, register or wire of a generated netlist.
type Signal struct {
	Name  string
	Width uint
}

// Netlist draws random small Verilog modules from R for the RTL
// engines' differential tests (internal/sim) and the bytecode
// compiler's coverage guard (internal/rtl/bc), so both see the same
// designs for the same seed. Generate fills in the signal lists the
// tests drive and poke.
type Netlist struct {
	R       *rand.Rand
	Inputs  []Signal
	Regs    []Signal
	Wires   []Signal
	MemName string // "" when the module has no memory
	MemD    uint   // memory depth
	memW    uint
}

func (g *Netlist) width() uint { return uint(1 + g.R.Intn(64)) }

// readable returns signals an expression may reference: all inputs
// and registers, plus the first nwires wires (strict declaration
// order prevents combinational loops).
func (g *Netlist) readable(nwires int) []Signal {
	out := append([]Signal{}, g.Inputs...)
	out = append(out, g.Regs...)
	out = append(out, g.Wires[:nwires]...)
	return out
}

// literal emits a constant and its width: a sized literal (its value
// often wider than its width), the module's localparam, or an unsized
// literal, 32 bits wide but now and then holding a wider value.
func (g *Netlist) literal() (string, uint) {
	switch g.R.Intn(5) {
	case 0, 1:
		w := uint(1 + g.R.Intn(64))
		return fmt.Sprintf("%d'h%x", w, g.R.Uint64()), w
	case 2:
		return "LP", 32
	case 3:
		return fmt.Sprintf("%d", g.R.Uint64()>>uint(g.R.Intn(64))), 32
	default:
		return fmt.Sprintf("%d", g.R.Uint32()>>uint(g.R.Intn(16))), 32
	}
}

// bitIndex emits a constant bit index into s: mostly in range, one in
// four at or past the width (past 64 too), where the select reads 0.
func (g *Netlist) bitIndex(s Signal) int {
	if g.R.Intn(4) == 0 {
		return int(s.Width) + g.R.Intn(70)
	}
	return g.R.Intn(int(s.Width))
}

// partSelect emits a constant part select within s's width, and its
// width.
func (g *Netlist) partSelect(s Signal) (string, uint) {
	lo := g.R.Intn(int(s.Width))
	hi := lo + g.R.Intn(int(s.Width)-lo)
	return fmt.Sprintf("%s[%d:%d]", s.Name, hi, lo), uint(hi-lo) + 1
}

// concatPart emits one concat part and its width: a signal, a
// constant part or bit select of one, or a literal.
func (g *Netlist) concatPart(sigs []Signal) (string, uint) {
	s := sigs[g.R.Intn(len(sigs))]
	switch g.R.Intn(5) {
	case 0:
		return g.partSelect(s)
	case 1:
		return fmt.Sprintf("%s[%d]", s.Name, g.bitIndex(s)), 1
	case 2:
		return g.literal()
	default:
		return s.Name, s.Width
	}
}

// Expr emits a random expression over the given signals, depth-bounded.
func (g *Netlist) Expr(sigs []Signal, depth int) string {
	if depth <= 0 || g.R.Intn(4) == 0 {
		// Leaf: signal, literal, or constrained select.
		if g.R.Intn(5) < 2 {
			lit, _ := g.literal()
			return lit
		}
		s := sigs[g.R.Intn(len(sigs))]
		switch g.R.Intn(5) {
		case 0:
			sel, _ := g.partSelect(s)
			return sel
		case 1: // dynamic bit select
			return fmt.Sprintf("%s[%s]", s.Name, sigs[g.R.Intn(len(sigs))].Name)
		case 2:
			return fmt.Sprintf("%s[%d]", s.Name, g.bitIndex(s))
		default:
			return s.Name
		}
	}
	switch g.R.Intn(8) {
	case 0:
		op := []string{"~", "-", "!", "&", "|", "^"}[g.R.Intn(6)]
		return fmt.Sprintf("(%s %s)", op, g.Expr(sigs, depth-1))
	case 1, 2, 3:
		op := []string{"+", "-", "*", "/", "%", "&", "|", "^", "&&", "||",
			"==", "!=", "<", "<=", ">", ">=", "<<", ">>"}[g.R.Intn(18)]
		// The right operand is a bare signal or a constant about half
		// the time, the shapes the compiler fuses into the operator.
		var y string
		switch g.R.Intn(4) {
		case 0:
			y = sigs[g.R.Intn(len(sigs))].Name
		case 1:
			y, _ = g.literal()
		default:
			y = g.Expr(sigs, depth-1)
		}
		return fmt.Sprintf("(%s %s %s)", g.Expr(sigs, depth-1), op, y)
	case 4:
		return fmt.Sprintf("(%s ? %s : %s)",
			g.Expr(sigs, depth-1), g.Expr(sigs, depth-1), g.Expr(sigs, depth-1))
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
			return sigs[g.R.Intn(len(sigs))].Name
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case 6: // repeat, n*w <= 64
		s := sigs[g.R.Intn(len(sigs))]
		n := 1 + g.R.Intn(int(64/s.Width))
		return fmt.Sprintf("{%d{%s}}", n, s.Name)
	default: // memory read
		if g.MemName == "" {
			return sigs[g.R.Intn(len(sigs))].Name
		}
		return fmt.Sprintf("%s[%s]", g.MemName, g.Expr(sigs, 0))
	}
}

// caseLabel emits one constant label. Most are small so they collide
// with each other (duplicates across items) and with narrow subjects;
// sized, unsized, over-wide (masked by their own width), wider than
// any narrow subject, and the module's localparam all appear.
func (g *Netlist) caseLabel() string {
	switch g.R.Intn(8) {
	case 0:
		return "LP"
	case 1:
		return fmt.Sprintf("10'd%d", g.R.Intn(1024))
	case 2:
		return fmt.Sprintf("3'd%d", g.R.Intn(16))
	case 3:
		return fmt.Sprintf("8'h%x", g.R.Intn(16))
	default:
		return fmt.Sprintf("%d", g.R.Intn(16))
	}
}

// caseStmt emits a case of 1-12 items with 1-3 labels each and the
// default absent, first, in the middle or last; body emits one item's
// statement. One case in five carries a label only the compare chain
// can take (a signal, or a constant past any table), so both
// dispatches of the compiled engine stay under the fuzzer.
func (g *Netlist) caseStmt(sigs []Signal, body func() string) string {
	// Narrow subjects make the small labels hit; a free expression
	// keeps wide and computed subjects covered, and a bare signal the
	// dispatch that reads its subject in place.
	s := sigs[g.R.Intn(len(sigs))]
	var subj string
	switch g.R.Intn(3) {
	case 0:
		subj = g.Expr(sigs, 1)
	case 1:
		subj = s.Name
	default:
		hi := g.R.Intn(4)
		if hi >= int(s.Width) {
			hi = int(s.Width) - 1
		}
		subj = fmt.Sprintf("%s[%d:0]", s.Name, hi)
	}
	nitems := 1 + g.R.Intn(12)
	chainAt := -1
	if g.R.Intn(5) == 0 {
		chainAt = g.R.Intn(nitems)
	}
	defaultAt := -1
	if g.R.Intn(4) != 0 {
		defaultAt = g.R.Intn(nitems + 1)
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
		labels := make([]string, 1+g.R.Intn(3))
		for j := range labels {
			labels[j] = g.caseLabel()
		}
		if i == chainAt {
			if g.R.Intn(2) == 0 {
				labels[0] = sigs[g.R.Intn(len(sigs))].Name
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
func (g *Netlist) seqStmt(owned []Signal, mem bool, depth int) string {
	sigs := g.readable(len(g.Wires))
	tgt := owned[g.R.Intn(len(owned))]
	switch g.R.Intn(7) {
	case 0:
		if depth > 0 {
			cond := g.Expr(sigs, 1)
			if g.R.Intn(2) == 0 {
				cond = sigs[g.R.Intn(len(sigs))].Name
			}
			return fmt.Sprintf("if (%s) begin\n%s\n%s\nend else begin\n%s\nend",
				cond, g.seqStmt(owned, mem, depth-1),
				g.seqStmt(owned, mem, depth-1), g.seqStmt(owned, mem, depth-1))
		}
		return fmt.Sprintf("%s <= %s;", tgt.Name, g.Expr(sigs, 2))
	case 1:
		if depth > 0 {
			return g.caseStmt(sigs, func() string { return g.seqStmt(owned, mem, 0) })
		}
		return fmt.Sprintf("%s <= %s;", tgt.Name, g.Expr(sigs, 2))
	case 2: // bit write
		return fmt.Sprintf("%s[%s] <= %s;", tgt.Name, g.Expr(sigs, 0), g.Expr(sigs, 1))
	case 3: // part-select write
		lo := g.R.Intn(int(tgt.Width))
		hi := lo + g.R.Intn(int(tgt.Width)-lo)
		return fmt.Sprintf("%s[%d:%d] <= %s;", tgt.Name, hi, lo, g.Expr(sigs, 1))
	case 4:
		if mem && g.MemName != "" {
			return fmt.Sprintf("%s[%s] <= %s;", g.MemName, g.Expr(sigs, 1), g.Expr(sigs, 2))
		}
		return fmt.Sprintf("%s <= %s;", tgt.Name, g.Expr(sigs, 2))
	case 5:
		if len(owned) >= 2 && owned[0].Width+owned[1].Width <= 64 {
			return fmt.Sprintf("{%s, %s} <= %s;", owned[0].Name, owned[1].Name, g.Expr(sigs, 2))
		}
		return fmt.Sprintf("%s <= %s;", tgt.Name, g.Expr(sigs, 2))
	default:
		return fmt.Sprintf("%s <= %s;", tgt.Name, g.Expr(sigs, 2))
	}
}

// Generate returns the source of one random module, fz. Layout: a few inputs, registers
// split across two always @(posedge) blocks (one of which may also
// own the memory), levelized assigns, and one always @(*) block that
// ends in a case.
func (g *Netlist) Generate() string {
	var b strings.Builder
	b.WriteString("module fz (\n  input wire clk")
	nin := 2 + g.R.Intn(3)
	for i := 0; i < nin; i++ {
		w := g.width()
		g.Inputs = append(g.Inputs, Signal{fmt.Sprintf("in%d", i), w})
		fmt.Fprintf(&b, ",\n  input wire [%d:0] in%d", w-1, i)
	}
	b.WriteString("\n);\n")
	fmt.Fprintf(&b, "  localparam LP = %d;\n", g.R.Intn(16))
	nreg := 2 + g.R.Intn(4)
	for i := 0; i < nreg; i++ {
		w := g.width()
		g.Regs = append(g.Regs, Signal{fmt.Sprintf("r%d", i), w})
		fmt.Fprintf(&b, "  reg [%d:0] r%d;\n", w-1, i)
	}
	if g.R.Intn(4) != 0 {
		g.memW = g.width()
		g.MemD = uint(2 + g.R.Intn(15))
		g.MemName = "m0"
		fmt.Fprintf(&b, "  reg [%d:0] m0 [0:%d];\n", g.memW-1, g.MemD-1)
	}

	// Levelized wires: each may read inputs, regs and earlier wires.
	nwire := 2 + g.R.Intn(4)
	for i := 0; i < nwire; i++ {
		w := g.width()
		fmt.Fprintf(&b, "  wire [%d:0] w%d;\n", w-1, i)
		g.Wires = append(g.Wires, Signal{fmt.Sprintf("w%d", i), w})
	}
	for i := 0; i < nwire; i++ {
		fmt.Fprintf(&b, "  assign w%d = %s;\n", i, g.Expr(g.readable(i), 3))
	}

	// One comb always block driving a dedicated comb reg.
	cw := g.width()
	fmt.Fprintf(&b, "  reg [%d:0] c0;\n", cw-1)
	sigs := g.readable(nwire)
	fmt.Fprintf(&b, "  always @(*) begin\n    if (%s) c0 = %s;\n    else c0 = %s;\n    %s\n  end\n",
		g.Expr(sigs, 1), g.Expr(sigs, 2), g.Expr(sigs, 2),
		g.caseStmt(sigs, func() string { return fmt.Sprintf("c0 = %s;", g.Expr(sigs, 2)) }))

	// Two seq blocks, registers split between them; the second owns
	// the memory when present.
	split := 1 + g.R.Intn(nreg-1)
	blockA, blockB := g.Regs[:split], g.Regs[split:]
	fmt.Fprintf(&b, "  always @(posedge clk) begin\n    %s\n    %s\n  end\n",
		g.seqStmt(blockA, false, 1), g.seqStmt(blockA, false, 1))
	if len(blockB) > 0 {
		fmt.Fprintf(&b, "  always @(posedge clk) begin\n    %s\n    %s\n  end\n",
			g.seqStmt(blockB, true, 1), g.seqStmt(blockB, true, 1))
	}
	b.WriteString("endmodule\n")
	return b.String()
}
