package rtl

import (
	"fmt"

	"hardsnap/internal/verilog"
)

// mask returns a bitmask with the w low bits set.
func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// constEval evaluates a parameter/width expression that must be
// compile-time constant.
func (e *elaborator) constEval(x verilog.Expr, scope *Scope, mod string) (uint64, error) {
	switch v := x.(type) {
	case *verilog.Number:
		return v.Value, nil
	case *verilog.Ident:
		if p, ok := scope.params[v.Name]; ok {
			return p, nil
		}
		return 0, e.errf(mod, 0, "identifier %q is not a constant parameter", v.Name)
	case *verilog.Unary:
		a, err := e.constEval(v.X, scope, mod)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-":
			return -a, nil
		case "~":
			return ^a, nil
		case "!":
			if a == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, e.errf(mod, 0, "operator %q not allowed in constant expression", v.Op)
	case *verilog.Binary:
		a, err := e.constEval(v.X, scope, mod)
		if err != nil {
			return 0, err
		}
		b, err := e.constEval(v.Y, scope, mod)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, e.errf(mod, 0, "division by zero in constant expression")
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, e.errf(mod, 0, "modulo by zero in constant expression")
			}
			return a % b, nil
		case "<<":
			if b >= 64 {
				return 0, nil
			}
			return a << b, nil
		case ">>":
			if b >= 64 {
				return 0, nil
			}
			return a >> b, nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		case "==":
			return b2u(a == b), nil
		case "!=":
			return b2u(a != b), nil
		case "<":
			return b2u(a < b), nil
		case "<=":
			return b2u(a <= b), nil
		case ">":
			return b2u(a > b), nil
		case ">=":
			return b2u(a >= b), nil
		}
		return 0, e.errf(mod, 0, "operator %q not allowed in constant expression", v.Op)
	case *verilog.Ternary:
		c, err := e.constEval(v.Cond, scope, mod)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return e.constEval(v.Then, scope, mod)
		}
		return e.constEval(v.Else, scope, mod)
	}
	return 0, e.errf(mod, 0, "expression is not constant")
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// WidthOf computes the bit width of an expression under the simplified
// width rules documented in package verilog.
func WidthOf(x verilog.Expr, scope *Scope) (uint, error) {
	switch v := x.(type) {
	case *verilog.Number:
		if v.Width == 0 {
			return 32, nil
		}
		return v.Width, nil
	case *verilog.Ident:
		if s, ok := scope.signals[v.Name]; ok {
			return s.Width, nil
		}
		if _, ok := scope.params[v.Name]; ok {
			return 32, nil
		}
		return 0, fmt.Errorf("rtl: unknown identifier %q", v.Name)
	case *verilog.Unary:
		switch v.Op {
		case "!", "&", "|", "^":
			return 1, nil
		}
		return WidthOf(v.X, scope)
	case *verilog.Binary:
		switch v.Op {
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return 1, nil
		case "<<", ">>":
			return WidthOf(v.X, scope)
		}
		wx, err := WidthOf(v.X, scope)
		if err != nil {
			return 0, err
		}
		wy, err := WidthOf(v.Y, scope)
		if err != nil {
			return 0, err
		}
		if wy > wx {
			wx = wy
		}
		return wx, nil
	case *verilog.Ternary:
		wt, err := WidthOf(v.Then, scope)
		if err != nil {
			return 0, err
		}
		we, err := WidthOf(v.Else, scope)
		if err != nil {
			return 0, err
		}
		if we > wt {
			wt = we
		}
		return wt, nil
	case *verilog.Index:
		if base, ok := v.X.(*verilog.Ident); ok {
			if m, isMem := scope.memories[base.Name]; isMem {
				return m.Width, nil
			}
		}
		return 1, nil
	case *verilog.RangeSel:
		hiW, err := constOnly(v.MSB, scope)
		if err != nil {
			return 0, err
		}
		loW, err := constOnly(v.LSB, scope)
		if err != nil {
			return 0, err
		}
		if hiW < loW {
			return 0, fmt.Errorf("rtl: reversed part-select [%d:%d]", hiW, loW)
		}
		w := uint(hiW-loW) + 1
		if w > 64 {
			return 0, fmt.Errorf("rtl: part-select width %d exceeds 64", w)
		}
		return w, nil
	case *verilog.Concat:
		var total uint
		for _, p := range v.Parts {
			w, err := WidthOf(p, scope)
			if err != nil {
				return 0, err
			}
			total += w
		}
		if total == 0 || total > 64 {
			return 0, fmt.Errorf("rtl: concat width %d out of range", total)
		}
		return total, nil
	case *verilog.Repeat:
		n, err := constOnly(v.Count, scope)
		if err != nil {
			return 0, err
		}
		w, err := WidthOf(v.X, scope)
		if err != nil {
			return 0, err
		}
		total := uint(n) * w
		if total == 0 || total > 64 {
			return 0, fmt.Errorf("rtl: repeat width %d out of range", total)
		}
		return total, nil
	}
	return 0, fmt.Errorf("rtl: cannot size expression %T", x)
}

// ConstEval evaluates an expression using only literals and
// parameters — the same folding EvalExpr applies to part-select
// bounds and repeat counts. The bytecode compiler (internal/rtl/bc)
// uses it to resolve those bounds at compile time, so the two engines
// agree bit-for-bit on every constant.
func ConstEval(x verilog.Expr, scope *Scope) (uint64, error) {
	return constOnly(x, scope)
}

// constOnly evaluates an expression using only literals and params.
func constOnly(x verilog.Expr, scope *Scope) (uint64, error) {
	switch v := x.(type) {
	case *verilog.Number:
		return v.Value, nil
	case *verilog.Ident:
		if p, ok := scope.params[v.Name]; ok {
			return p, nil
		}
		return 0, fmt.Errorf("rtl: %q is not constant", v.Name)
	case *verilog.Binary:
		a, err := constOnly(v.X, scope)
		if err != nil {
			return 0, err
		}
		b, err := constOnly(v.Y, scope)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "<<":
			return a << (b & 63), nil
		case ">>":
			return a >> (b & 63), nil
		}
		return 0, fmt.Errorf("rtl: operator %q not constant-foldable here", v.Op)
	}
	return 0, fmt.Errorf("rtl: expression is not constant")
}

// State is the mutable value store a Design is evaluated against.
type State struct {
	Vals []uint64   // indexed by Signal.ID
	Mems [][]uint64 // indexed by Memory.ID
}

// NewState allocates a zeroed state for the design.
func NewState(d *Design) *State {
	st := &State{
		Vals: make([]uint64, len(d.Signals)),
		Mems: make([][]uint64, len(d.Memories)),
	}
	for i, m := range d.Memories {
		st.Mems[i] = make([]uint64, m.Depth)
	}
	return st
}

// EvalExpr evaluates an expression against the state. Values are
// masked to each subexpression's width.
func EvalExpr(x verilog.Expr, scope *Scope, st *State) (uint64, error) {
	switch v := x.(type) {
	case *verilog.Number:
		if v.Width == 0 {
			return v.Value, nil
		}
		return v.Value & mask(v.Width), nil

	case *verilog.Ident:
		if s, ok := scope.signals[v.Name]; ok {
			return st.Vals[s.ID] & mask(s.Width), nil
		}
		if p, ok := scope.params[v.Name]; ok {
			return p, nil
		}
		return 0, fmt.Errorf("rtl: unknown identifier %q", v.Name)

	case *verilog.Unary:
		a, err := EvalExpr(v.X, scope, st)
		if err != nil {
			return 0, err
		}
		w, err := WidthOf(v.X, scope)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "~":
			return ^a & mask(w), nil
		case "-":
			return -a & mask(w), nil
		case "!":
			return b2u(a == 0), nil
		case "&":
			return b2u(a == mask(w)), nil
		case "|":
			return b2u(a != 0), nil
		case "^":
			p := a
			p ^= p >> 32
			p ^= p >> 16
			p ^= p >> 8
			p ^= p >> 4
			p ^= p >> 2
			p ^= p >> 1
			return p & 1, nil
		}
		return 0, fmt.Errorf("rtl: unknown unary operator %q", v.Op)

	case *verilog.Binary:
		a, err := EvalExpr(v.X, scope, st)
		if err != nil {
			return 0, err
		}
		b, err := EvalExpr(v.Y, scope, st)
		if err != nil {
			return 0, err
		}
		w, err := WidthOf(x, scope)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return (a + b) & mask(w), nil
		case "-":
			return (a - b) & mask(w), nil
		case "*":
			return (a * b) & mask(w), nil
		case "/":
			if b == 0 {
				return mask(w), nil
			}
			return (a / b) & mask(w), nil
		case "%":
			if b == 0 {
				return a & mask(w), nil
			}
			return (a % b) & mask(w), nil
		case "&":
			return a & b, nil
		case "|":
			return (a | b) & mask(w), nil
		case "^":
			return (a ^ b) & mask(w), nil
		case "&&":
			return b2u(a != 0 && b != 0), nil
		case "||":
			return b2u(a != 0 || b != 0), nil
		case "==":
			return b2u(a == b), nil
		case "!=":
			return b2u(a != b), nil
		case "<":
			return b2u(a < b), nil
		case "<=":
			return b2u(a <= b), nil
		case ">":
			return b2u(a > b), nil
		case ">=":
			return b2u(a >= b), nil
		case "<<":
			if b >= 64 {
				return 0, nil
			}
			return (a << b) & mask(w), nil
		case ">>":
			if b >= 64 {
				return 0, nil
			}
			return a >> b, nil
		}
		return 0, fmt.Errorf("rtl: unknown binary operator %q", v.Op)

	case *verilog.Ternary:
		c, err := EvalExpr(v.Cond, scope, st)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return EvalExpr(v.Then, scope, st)
		}
		return EvalExpr(v.Else, scope, st)

	case *verilog.Index:
		if base, ok := v.X.(*verilog.Ident); ok {
			if m, isMem := scope.memories[base.Name]; isMem {
				idx, err := EvalExpr(v.Idx, scope, st)
				if err != nil {
					return 0, err
				}
				if idx >= uint64(m.Depth) {
					return 0, nil // out-of-range reads return zero
				}
				return st.Mems[m.ID][idx] & mask(m.Width), nil
			}
		}
		val, err := EvalExpr(v.X, scope, st)
		if err != nil {
			return 0, err
		}
		idx, err := EvalExpr(v.Idx, scope, st)
		if err != nil {
			return 0, err
		}
		if idx >= 64 {
			return 0, nil
		}
		return val >> idx & 1, nil

	case *verilog.RangeSel:
		val, err := EvalExpr(v.X, scope, st)
		if err != nil {
			return 0, err
		}
		hi, err := constOnly(v.MSB, scope)
		if err != nil {
			return 0, err
		}
		lo, err := constOnly(v.LSB, scope)
		if err != nil {
			return 0, err
		}
		if hi < lo || hi-lo+1 > 64 {
			return 0, fmt.Errorf("rtl: bad part select [%d:%d]", hi, lo)
		}
		return val >> lo & mask(uint(hi-lo)+1), nil

	case *verilog.Concat:
		var out uint64
		for _, p := range v.Parts {
			pv, err := EvalExpr(p, scope, st)
			if err != nil {
				return 0, err
			}
			pw, err := WidthOf(p, scope)
			if err != nil {
				return 0, err
			}
			out = out<<pw | (pv & mask(pw))
		}
		return out, nil

	case *verilog.Repeat:
		n, err := constOnly(v.Count, scope)
		if err != nil {
			return 0, err
		}
		pv, err := EvalExpr(v.X, scope, st)
		if err != nil {
			return 0, err
		}
		pw, err := WidthOf(v.X, scope)
		if err != nil {
			return 0, err
		}
		var out uint64
		for i := uint64(0); i < n; i++ {
			out = out<<pw | (pv & mask(pw))
		}
		return out, nil
	}
	return 0, fmt.Errorf("rtl: cannot evaluate %T", x)
}
