package rtl

import (
	"fmt"
	"math/bits"

	"hardsnap/internal/verilog"
)

// mask returns a bitmask with the w low bits set.
func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// ConstEval folds an expression of literals and the parameters param
// resolves: the one constant folder of the module. Elaboration
// (parameters, declared ranges, instance overrides), the scan-chain
// pass, part-select bounds and replication counts in both engines all
// call it, so a constant means the same everywhere. Its operators are
// the interpreter's at 64 bits, unmasked (a shift by 64 or more is 0),
// without && and || or the reductions; dividing by zero is an error.
func ConstEval(x verilog.Expr, param func(string) (uint64, bool)) (uint64, error) {
	switch v := x.(type) {
	case *verilog.Number:
		return v.Value, nil
	case *verilog.Ident:
		if p, ok := param(v.Name); ok {
			return p, nil
		}
		return 0, fmt.Errorf("rtl: identifier %q is not constant", v.Name)
	case *verilog.Unary:
		a, err := ConstEval(v.X, param)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "-", "~", "!":
			return concrete{}.unary(v.Op, a, 64), nil
		}
		return 0, fmt.Errorf("rtl: operator %q not allowed in constant expression", v.Op)
	case *verilog.Binary:
		a, err := ConstEval(v.X, param)
		if err != nil {
			return 0, err
		}
		b, err := ConstEval(v.Y, param)
		_, known := binaryWidth(v.Op, 64, 64)
		switch {
		case err != nil:
			return 0, err
		case !known || v.Op == "&&" || v.Op == "||":
			return 0, fmt.Errorf("rtl: operator %q not allowed in constant expression", v.Op)
		case b == 0 && (v.Op == "/" || v.Op == "%"):
			return 0, fmt.Errorf("rtl: %s by zero in constant expression", v.Op)
		}
		return concrete{}.binary(v.Op, a, b, 64), nil
	case *verilog.Ternary:
		c, err := ConstEval(v.Cond, param)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return ConstEval(v.Then, param)
		}
		return ConstEval(v.Else, param)
	}
	return 0, fmt.Errorf("rtl: expression is not constant")
}

// PartSelect folds the bounds of x[hi:lo], which must select 1 to 64
// bits.
func PartSelect(x *verilog.RangeSel, scope *Scope) (hi, lo uint64, err error) {
	if hi, err = ConstEval(x.MSB, scope.Param); err != nil {
		return 0, 0, err
	}
	if lo, err = ConstEval(x.LSB, scope.Param); err != nil {
		return 0, 0, err
	}
	if hi < lo || hi-lo >= 64 {
		return 0, 0, fmt.Errorf("rtl: bad part select [%d:%d]", hi, lo)
	}
	return hi, lo, nil
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// WidthOf computes the bit width of an expression under the simplified
// width rules documented in package verilog: the walker's width, in a
// domain that computes nothing else.
func WidthOf(x verilog.Expr, scope *Scope) (uint, error) {
	w := walker[uint64, widths]{scope: scope}
	_, width, err := w.eval(x)
	if err == nil && width == 0 {
		err = fmt.Errorf("rtl: width of %T out of range (1..64)", x)
	}
	return width, err
}

// widths is WidthOf's domain: the interpreter's over no state, where
// every signal and memory word reads 0.
type widths struct{ concrete }

func (widths) signal(*Signal) (uint64, error)       { return 0, nil }
func (widths) word(*Memory, uint64) (uint64, error) { return 0, nil }

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
	w := walker[uint64, concrete]{scope, concrete{st: st}}
	v, _, err := w.eval(x)
	return v, err
}

// concrete is the interpreter's domain: every value is known, reads
// come from the state and writes go to out, or into the state at once
// when out is nil (a combinational node's blocking semantics).
type concrete struct {
	st  *State
	out *[]Write
}

func (concrete) num(v uint64, _ uint) uint64 { return v }

func (c concrete) signal(s *Signal) (uint64, error) {
	return c.st.Vals[s.ID] & mask(s.Width), nil
}

func (c concrete) word(m *Memory, idx uint64) (uint64, error) {
	if idx >= uint64(m.Depth) {
		return 0, nil // out-of-range reads return zero
	}
	return c.st.Mems[m.ID][idx] & mask(m.Width), nil
}

func (concrete) unary(op string, a uint64, w uint) uint64 {
	switch op {
	case "~":
		return ^a & mask(w)
	case "-":
		return -a & mask(w)
	case "!":
		return b2u(a == 0)
	case "&":
		return b2u(a == mask(w))
	case "|":
		return b2u(a != 0)
	case "^":
		return uint64(bits.OnesCount64(a) & 1)
	}
	panic("rtl: unknown unary operator " + op) // the walker knows every operator it passes
}

func (concrete) binary(op string, a, b uint64, w uint) uint64 {
	switch op {
	case "+":
		return (a + b) & mask(w)
	case "-":
		return (a - b) & mask(w)
	case "*":
		return (a * b) & mask(w)
	case "/":
		if b == 0 {
			return mask(w)
		}
		return (a / b) & mask(w)
	case "%":
		if b == 0 {
			return a & mask(w)
		}
		return (a % b) & mask(w)
	case "&":
		return a & b
	case "|":
		return (a | b) & mask(w)
	case "^":
		return (a ^ b) & mask(w)
	case "&&":
		return b2u(a != 0 && b != 0)
	case "||":
		return b2u(a != 0 || b != 0)
	case "==":
		return b2u(a == b)
	case "!=":
		return b2u(a != b)
	case "<":
		return b2u(a < b)
	case "<=":
		return b2u(a <= b)
	case ">":
		return b2u(a > b)
	case ">=":
		return b2u(a >= b)
	case "<<":
		if b >= 64 {
			return 0
		}
		return (a << b) & mask(w)
	case ">>":
		if b >= 64 {
			return 0
		}
		return a >> b
	}
	panic("rtl: unknown binary operator " + op)
}

func (concrete) sel(a, lo uint64, w uint) uint64 { return a >> lo & mask(w) }

func (concrete) bit(a, idx uint64) uint64 {
	if idx >= 64 {
		return 0
	}
	return a >> idx & 1
}

func (concrete) concat(hi, lo uint64, w uint) (uint64, error) { return hi<<w | lo&mask(w), nil }

func (concrete) mux(c, t, e uint64) uint64 {
	if c != 0 {
		return t
	}
	return e
}

func (concrete) known(v uint64) (uint64, bool) { return v, true }

func (concrete) fork() any                            { panic("rtl: a concrete branch is always known") }
func (concrete) swap(any) any                         { panic("rtl: a concrete branch is always known") }
func (concrete) join(uint64, any) error               { panic("rtl: a concrete branch is always known") }
func (concrete) fail(_ verilog.Stmt, err error) error { return err }
