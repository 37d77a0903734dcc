package rtl

import (
	"fmt"

	"hardsnap/internal/verilog"
)

// Write is one pending assignment produced by executing a statement.
// It names its target by ID, not by pointer, so a buffer of writes
// holds no pointers for the garbage collector to track. A register
// write carries the bits it replaces in Mask, so partial (bit or
// part-select) assignments merge correctly; a memory write targets
// element Idx and carries the memory's word mask.
type Write struct {
	ID   int32 // Signal.ID, or Memory.ID when Mem is set
	Mem  bool
	Mask uint64
	Val  uint64
	Idx  uint64
}

// Apply commits the write to the state. A memory write past the end
// of the memory is dropped.
func (w *Write) Apply(st *State) {
	if w.Mem {
		if m := st.Mems[w.ID]; w.Idx < uint64(len(m)) {
			m[w.Idx] = w.Val & w.Mask
		}
		return
	}
	old := st.Vals[w.ID]
	st.Vals[w.ID] = (old &^ w.Mask) | (w.Val & w.Mask)
}

// ExecComb executes a combinational node against the state, applying
// writes immediately (blocking semantics).
func (c *CombNode) ExecComb(st *State) error {
	emit := func(w Write) { w.Apply(st) }
	if c.Assign != nil {
		rhs, err := EvalExpr(c.Assign.RHS, c.Scope, st)
		if err != nil {
			return err
		}
		return assignTo(c.Assign.LHS, rhs, c.Scope, st, emit)
	}
	return execStmt(c.Block, c.Scope, st, emit)
}

// ExecSeq executes a sequential block, appending deferred nonblocking
// writes to out; the caller commits them after all blocks ran.
func (b *SeqBlock) ExecSeq(st *State, out *[]Write) error {
	emit := func(w Write) { *out = append(*out, w) }
	return execStmt(b.Body, b.Scope, st, emit)
}

func execStmt(s verilog.Stmt, scope *Scope, st *State, emit func(Write)) error {
	switch v := s.(type) {
	case *verilog.Block:
		for _, sub := range v.Stmts {
			if err := execStmt(sub, scope, st, emit); err != nil {
				return err
			}
		}
		return nil
	case *verilog.If:
		c, err := EvalExpr(v.Cond, scope, st)
		if err != nil {
			return err
		}
		if c != 0 {
			return execStmt(v.Then, scope, st, emit)
		}
		if v.Else != nil {
			return execStmt(v.Else, scope, st, emit)
		}
		return nil
	case *verilog.Case:
		subj, err := EvalExpr(v.Subject, scope, st)
		if err != nil {
			return err
		}
		var deflt verilog.Stmt
		for _, item := range v.Items {
			if item.Labels == nil {
				deflt = item.Body
				continue
			}
			for _, l := range item.Labels {
				lv, err := EvalExpr(l, scope, st)
				if err != nil {
					return err
				}
				if lv == subj {
					return execStmt(item.Body, scope, st, emit)
				}
			}
		}
		if deflt != nil {
			return execStmt(deflt, scope, st, emit)
		}
		return nil
	case *verilog.NonBlocking:
		rhs, err := EvalExpr(v.RHS, scope, st)
		if err != nil {
			return err
		}
		return assignTo(v.LHS, rhs, scope, st, emit)
	case *verilog.Blocking:
		rhs, err := EvalExpr(v.RHS, scope, st)
		if err != nil {
			return err
		}
		return assignTo(v.LHS, rhs, scope, st, emit)
	}
	return fmt.Errorf("rtl: cannot execute statement %T", s)
}

// assignTo resolves an lvalue and emits the corresponding write(s).
func assignTo(lhs verilog.Expr, rhs uint64, scope *Scope, st *State, emit func(Write)) error {
	switch v := lhs.(type) {
	case *verilog.Ident:
		sig, ok := scope.signals[v.Name]
		if !ok {
			return fmt.Errorf("rtl: unknown lvalue %q", v.Name)
		}
		emit(Write{ID: int32(sig.ID), Mask: mask(sig.Width), Val: rhs & mask(sig.Width)})
		return nil

	case *verilog.Index:
		base, ok := v.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("rtl: unsupported indexed lvalue")
		}
		idx, err := EvalExpr(v.Idx, scope, st)
		if err != nil {
			return err
		}
		if mem, isMem := scope.memories[base.Name]; isMem {
			emit(Write{ID: int32(mem.ID), Mem: true, Mask: mask(mem.Width), Idx: idx, Val: rhs})
			return nil
		}
		sig, ok := scope.signals[base.Name]
		if !ok {
			return fmt.Errorf("rtl: unknown lvalue %q", base.Name)
		}
		if idx >= uint64(sig.Width) {
			return nil // out-of-range bit write is dropped
		}
		emit(Write{ID: int32(sig.ID), Mask: 1 << idx, Val: (rhs & 1) << idx})
		return nil

	case *verilog.RangeSel:
		base, ok := v.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("rtl: unsupported part-select lvalue")
		}
		sig, ok := scope.signals[base.Name]
		if !ok {
			return fmt.Errorf("rtl: unknown lvalue %q", base.Name)
		}
		hi, err := constOnly(v.MSB, scope)
		if err != nil {
			return err
		}
		lo, err := constOnly(v.LSB, scope)
		if err != nil {
			return err
		}
		if hi < lo || hi >= uint64(sig.Width) {
			return fmt.Errorf("rtl: part-select [%d:%d] out of range of %s", hi, lo, sig.Name)
		}
		w := uint(hi-lo) + 1
		emit(Write{ID: int32(sig.ID), Mask: mask(w) << lo, Val: (rhs & mask(w)) << lo})
		return nil

	case *verilog.Concat:
		// MSB-first: the first part takes the most significant bits.
		widths := make([]uint, len(v.Parts))
		var total uint
		for i, p := range v.Parts {
			w, err := WidthOf(p, scope)
			if err != nil {
				return err
			}
			widths[i] = w
			total += w
		}
		shift := total
		for i, p := range v.Parts {
			shift -= widths[i]
			part := rhs >> shift & mask(widths[i])
			if err := assignTo(p, part, scope, st, emit); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("rtl: unsupported lvalue %T", lhs)
}
