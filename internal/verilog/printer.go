package verilog

import (
	"fmt"
	"strings"
)

// Print renders a source file back to Verilog text. The output is
// normalized (original spacing and comments are not preserved) but
// re-parses to an identical AST; the scan-chain instrumenter relies on
// this round trip.
func Print(f *SourceFile) string {
	var b strings.Builder
	for i, m := range f.Modules {
		if i > 0 {
			b.WriteString("\n")
		}
		printModule(&b, m)
	}
	return b.String()
}

// PrintModule renders a single module.
func PrintModule(m *Module) string {
	var b strings.Builder
	printModule(&b, m)
	return b.String()
}

func printModule(b *strings.Builder, m *Module) {
	b.WriteString("module ")
	b.WriteString(m.Name)
	if len(m.Params) > 0 {
		b.WriteString(" #(\n")
		for i, p := range m.Params {
			fmt.Fprintf(b, "  parameter %s = %s", p.Name, exprString(p.Value))
			if i < len(m.Params)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString(")")
	}
	if len(m.Ports) > 0 {
		b.WriteString(" (\n")
		for i, p := range m.Ports {
			b.WriteString("  ")
			b.WriteString(p.Dir.String())
			if p.IsReg {
				b.WriteString(" reg")
			} else {
				b.WriteString(" wire")
			}
			if p.MSB != nil {
				fmt.Fprintf(b, " [%s:%s]", exprString(p.MSB), exprString(p.LSB))
			}
			b.WriteString(" ")
			b.WriteString(p.Name)
			if i < len(m.Ports)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString(")")
	}
	b.WriteString(";\n")
	for _, item := range m.Items {
		printItem(b, item, 1)
	}
	b.WriteString("endmodule\n")
}

func indent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("  ")
	}
}

func printItem(b *strings.Builder, item Item, depth int) {
	switch it := item.(type) {
	case *ParamItem:
		indent(b, depth)
		kw := "parameter"
		if it.Param.IsLocal {
			kw = "localparam"
		}
		fmt.Fprintf(b, "%s %s = %s;\n", kw, it.Param.Name, exprString(it.Param.Value))

	case *NetDecl:
		indent(b, depth)
		if it.IsReg {
			b.WriteString("reg")
		} else {
			b.WriteString("wire")
		}
		if it.MSB != nil {
			fmt.Fprintf(b, " [%s:%s]", exprString(it.MSB), exprString(it.LSB))
		}
		b.WriteString(" ")
		for i, n := range it.Names {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n.Name)
			if n.ArrMSB != nil {
				fmt.Fprintf(b, " [%s:%s]", exprString(n.ArrMSB), exprString(n.ArrLSB))
			}
			if n.Init != nil {
				fmt.Fprintf(b, " = %s", exprString(n.Init))
			}
		}
		b.WriteString(";\n")

	case *Assign:
		indent(b, depth)
		fmt.Fprintf(b, "assign %s = %s;\n", exprString(it.LHS), exprString(it.RHS))

	case *AlwaysFF:
		indent(b, depth)
		fmt.Fprintf(b, "always @(posedge %s)\n", it.Clock)
		printStmt(b, it.Body, depth+1)

	case *AlwaysComb:
		indent(b, depth)
		b.WriteString("always @(*)\n")
		printStmt(b, it.Body, depth+1)

	case *Instance:
		indent(b, depth)
		b.WriteString(it.ModuleName)
		if len(it.ParamOverrides) > 0 {
			b.WriteString(" #(")
			first := true
			for _, name := range sortedKeys(it.ParamOverrides) {
				if !first {
					b.WriteString(", ")
				}
				first = false
				fmt.Fprintf(b, ".%s(%s)", name, exprString(it.ParamOverrides[name]))
			}
			b.WriteString(")")
		}
		fmt.Fprintf(b, " %s (", it.Name)
		first := true
		for _, name := range sortedKeys(it.Conns) {
			if !first {
				b.WriteString(", ")
			}
			first = false
			if it.Conns[name] == nil {
				fmt.Fprintf(b, ".%s()", name)
			} else {
				fmt.Fprintf(b, ".%s(%s)", name, exprString(it.Conns[name]))
			}
		}
		b.WriteString(");\n")
	}
}

func sortedKeys(m map[string]Expr) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: maps are small.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	switch st := s.(type) {
	case *Block:
		indent(b, depth-1)
		b.WriteString("begin\n")
		for _, sub := range st.Stmts {
			printStmt(b, sub, depth+1)
		}
		indent(b, depth-1)
		b.WriteString("end\n")

	case *If:
		indent(b, depth)
		fmt.Fprintf(b, "if (%s)\n", exprString(st.Cond))
		printStmt(b, st.Then, depth+1)
		if st.Else != nil {
			indent(b, depth)
			b.WriteString("else\n")
			printStmt(b, st.Else, depth+1)
		}

	case *Case:
		indent(b, depth)
		fmt.Fprintf(b, "case (%s)\n", exprString(st.Subject))
		for _, item := range st.Items {
			indent(b, depth+1)
			if item.Labels == nil {
				b.WriteString("default:\n")
			} else {
				labels := make([]string, len(item.Labels))
				for i, l := range item.Labels {
					labels[i] = exprString(l)
				}
				fmt.Fprintf(b, "%s:\n", strings.Join(labels, ", "))
			}
			printStmt(b, item.Body, depth+3)
		}
		indent(b, depth)
		b.WriteString("endcase\n")

	case *NonBlocking:
		indent(b, depth)
		fmt.Fprintf(b, "%s <= %s;\n", exprString(st.LHS), exprString(st.RHS))

	case *Blocking:
		indent(b, depth)
		fmt.Fprintf(b, "%s = %s;\n", exprString(st.LHS), exprString(st.RHS))
	}
}

func exprString(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *Number:
		if x.Text != "" {
			return x.Text
		}
		if x.Width > 0 {
			return fmt.Sprintf("%d'h%x", x.Width, x.Value)
		}
		return fmt.Sprintf("%d", x.Value)
	case *Unary:
		return fmt.Sprintf("%s(%s)", x.Op, exprString(x.X))
	case *Binary:
		return fmt.Sprintf("(%s %s %s)", exprString(x.X), x.Op, exprString(x.Y))
	case *Ternary:
		return fmt.Sprintf("(%s ? %s : %s)", exprString(x.Cond), exprString(x.Then), exprString(x.Else))
	case *Index:
		return fmt.Sprintf("%s[%s]", exprString(x.X), exprString(x.Idx))
	case *RangeSel:
		return fmt.Sprintf("%s[%s:%s]", exprString(x.X), exprString(x.MSB), exprString(x.LSB))
	case *Concat:
		parts := make([]string, len(x.Parts))
		for i, p := range x.Parts {
			parts[i] = exprString(p)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Repeat:
		return fmt.Sprintf("{%s{%s}}", exprString(x.Count), exprString(x.X))
	}
	return "?"
}
