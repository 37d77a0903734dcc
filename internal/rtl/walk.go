package rtl

import (
	"fmt"

	"hardsnap/internal/verilog"
)

// domain is a value domain the walker evaluates Verilog in: uint64 for
// the interpreter (concrete), *expr.Term for SymStep (sym). The walker
// owns everything both share: identifier and lvalue resolution,
// constant bounds, the width of every node and what is an error; a
// domain computes values, failing only on one it cannot represent. A
// value is the uint64 the interpreter computes for the node: its
// Verilog width bounds it, except that a parameter or an unsized
// literal keeps its whole value.
type domain[V any] interface {
	// num is a literal or parameter value v of Verilog width w.
	num(v uint64, w uint) V
	// signal reads a signal; word reads memory word idx (0 past the
	// end).
	signal(sig *Signal) (V, error)
	word(m *Memory, idx V) (V, error)
	// unary applies op to x of width w; binary applies op to x and y
	// for a result of width w (1 for comparisons and logic).
	unary(op string, x V, w uint) V
	binary(op string, x, y V, w uint) V
	// sel is x>>lo & mask(w); bit is bit idx of x (0 past 64);
	// concat is hi<<w | lo&mask(w).
	sel(x V, lo uint64, w uint) V
	bit(x, idx V) V
	concat(hi, lo V, w uint) (V, error)
	// mux is c != 0 ? t : e. known returns the number v is, if the
	// domain knows it; concrete values are always known.
	mux(c, t, e V) V
	known(v V) (uint64, bool)

	// store writes the bits of sig set in m from the same bits of v;
	// storeWord writes word idx of mem (dropped past the end).
	store(sig *Signal, m, v V) error
	storeWord(mem *Memory, idx, v V) error
	// fork, swap and join run both arms of a branch on a condition
	// that is not known: fork snapshots the writes so far, swap
	// installs the snapshot and returns the writes of the first arm,
	// join merges those (taken when c != 0) with the current ones.
	fork() any
	swap(before any) any
	join(c V, then any) error
	// fail handles err raised by statement s: the concrete domain
	// returns it, the symbolic one marks the targets of s unmodeled and
	// goes on.
	fail(s verilog.Stmt, err error) error
}

// walker evaluates the expressions and executes the statements of one
// scope in domain D.
type walker[V any, D domain[V]] struct {
	scope *Scope
	d     D
}

// truth reports whether c is known and, if so, whether it is non-zero.
func (w *walker[V, D]) truth(c V) (known, nonzero bool) {
	k, ok := w.d.known(c)
	return ok, k != 0
}

// eval returns the value of x and its width: WidthOf(x), or 0 where
// WidthOf fails but the value does not (an operand the interpreter
// never sizes, such as a concatenation wider than 64 bits).
func (w *walker[V, D]) eval(x verilog.Expr) (V, uint, error) {
	var zero V
	switch v := x.(type) {
	case *verilog.Number:
		if v.Width == 0 { // unsized: 32 bits wide, keeping the whole value
			return w.d.num(v.Value, 32), 32, nil
		}
		return w.d.num(v.Value&mask(v.Width), v.Width), v.Width, nil

	case *verilog.Ident:
		if s, ok := w.scope.signals[v.Name]; ok {
			val, err := w.d.signal(s)
			return val, s.Width, err
		}
		if p, ok := w.scope.params[v.Name]; ok {
			return w.d.num(p, 32), 32, nil
		}
		return zero, 0, fmt.Errorf("rtl: unknown identifier %q", v.Name)

	case *verilog.Unary:
		a, wa, err := w.eval(v.X)
		if err == nil && wa == 0 {
			_, err = WidthOf(v.X, w.scope)
		}
		if err != nil {
			return zero, 0, err
		}
		switch v.Op {
		case "~", "-":
			return w.d.unary(v.Op, a, wa), wa, nil
		case "!", "&", "|", "^":
			return w.d.unary(v.Op, a, wa), 1, nil
		}
		return zero, 0, fmt.Errorf("rtl: unknown unary operator %q", v.Op)

	case *verilog.Binary:
		a, wa, err := w.eval(v.X)
		if err != nil {
			return zero, 0, err
		}
		b, wb, err := w.eval(v.Y)
		if err != nil {
			return zero, 0, err
		}
		wr, ok := binaryWidth(v.Op, wa, wb)
		switch {
		case !ok:
			return zero, 0, fmt.Errorf("rtl: unknown binary operator %q", v.Op)
		case wr == 0 && wa == 0:
			_, err = WidthOf(v.X, w.scope)
		case wr == 0:
			_, err = WidthOf(v.Y, w.scope)
		}
		if err != nil {
			return zero, 0, err
		}
		return w.d.binary(v.Op, a, b, wr), wr, nil

	case *verilog.Ternary:
		c, _, err := w.eval(v.Cond)
		if err != nil {
			return zero, 0, err
		}
		if known, nonzero := w.truth(c); known {
			taken, other := v.Then, v.Else
			if !nonzero {
				taken, other = other, taken
			}
			val, wt, err := w.eval(taken)
			// The arm not taken still sizes the result.
			if wo, werr := WidthOf(other, w.scope); werr == nil && wt != 0 {
				return val, max(wt, wo), err
			}
			return val, 0, err
		}
		t, wt, err := w.eval(v.Then)
		if err != nil {
			return zero, 0, err
		}
		e, we, err := w.eval(v.Else)
		if err != nil {
			return zero, 0, err
		}
		if wt == 0 || we == 0 {
			return w.d.mux(c, t, e), 0, nil
		}
		return w.d.mux(c, t, e), max(wt, we), nil

	case *verilog.Index:
		if base, ok := v.X.(*verilog.Ident); ok {
			if m, isMem := w.scope.memories[base.Name]; isMem {
				idx, _, err := w.eval(v.Idx)
				if err != nil {
					return zero, 0, err
				}
				val, err := w.d.word(m, idx)
				return val, m.Width, err
			}
		}
		a, _, err := w.eval(v.X)
		if err != nil {
			return zero, 0, err
		}
		idx, _, err := w.eval(v.Idx)
		if err != nil {
			return zero, 0, err
		}
		return w.d.bit(a, idx), 1, nil

	case *verilog.RangeSel:
		a, _, err := w.eval(v.X)
		if err != nil {
			return zero, 0, err
		}
		hi, lo, err := PartSelect(v, w.scope)
		if err != nil {
			return zero, 0, err
		}
		width := uint(hi-lo) + 1
		return w.d.sel(a, lo, width), width, nil

	case *verilog.Concat:
		var out V
		var total uint
		for i, p := range v.Parts {
			pv, pw, err := w.eval(p)
			if err == nil && pw == 0 {
				_, err = WidthOf(p, w.scope)
			}
			if err == nil && i == 0 {
				out = w.d.sel(pv, 0, pw)
			} else if err == nil {
				out, err = w.d.concat(out, pv, pw)
			}
			if err != nil {
				return zero, 0, err
			}
			total += pw
		}
		if len(v.Parts) == 0 {
			return w.d.num(0, 1), 0, nil
		}
		if total > 64 {
			total = 0
		}
		return out, total, nil

	case *verilog.Repeat:
		n, err := ConstEval(v.Count, w.scope.Param)
		if err != nil {
			return zero, 0, err
		}
		pv, pw, err := w.eval(v.X)
		if err == nil && pw == 0 {
			_, err = WidthOf(v.X, w.scope)
		}
		if err != nil {
			return zero, 0, err
		}
		if n == 0 {
			return w.d.num(0, 1), 0, nil
		}
		// Past 64 copies every earlier one has shifted out.
		out := w.d.sel(pv, 0, pw)
		for i := uint64(1); i < min(n, 64) && err == nil; i++ {
			out, err = w.d.concat(out, pv, pw)
		}
		total := uint(n) * pw
		if n > 64 || total > 64 {
			total = 0
		}
		return out, total, err
	}
	return zero, 0, fmt.Errorf("rtl: cannot evaluate %T", x)
}

// exec executes a statement; nil is the empty one.
func (w *walker[V, D]) exec(s verilog.Stmt) error {
	switch v := s.(type) {
	case nil:
		return nil
	case *verilog.Block:
		for _, sub := range v.Stmts {
			if err := w.exec(sub); err != nil {
				return err
			}
		}
		return nil
	case *verilog.If:
		c, _, err := w.eval(v.Cond)
		if err != nil {
			return w.d.fail(s, err)
		}
		return w.branch(c, v.Then, v.Else)
	case *verilog.Case:
		subj, _, err := w.eval(v.Subject)
		if err != nil {
			return w.d.fail(s, err)
		}
		sv, svKnown := w.d.known(subj)
		var deflt verilog.Stmt // the last default so far: it runs if nothing matches
		for i, item := range v.Items {
			if item.Labels == nil {
				deflt = item.Body
				continue
			}
			hit, known, nonzero, err := w.match(item.Labels, subj, sv, svKnown)
			switch {
			case err != nil:
				return w.d.fail(s, err)
			case known && nonzero:
				return w.exec(item.Body)
			case !known: // this item, or the case of the items after it
				rest := append([]verilog.CaseItem{{Body: deflt}}, v.Items[i+1:]...)
				return w.branch(hit, item.Body, &verilog.Case{Subject: v.Subject, Items: rest})
			}
		}
		return w.exec(deflt)
	case *verilog.NonBlocking:
		return w.update(s, v.LHS, v.RHS)
	case *verilog.Blocking:
		return w.update(s, v.LHS, v.RHS)
	}
	return w.d.fail(s, fmt.Errorf("rtl: cannot execute statement %T", s))
}

// branch runs then when c is non-zero and els (which may be nil)
// otherwise; on a condition the domain does not know, both, merged.
func (w *walker[V, D]) branch(c V, then, els verilog.Stmt) error {
	if known, nonzero := w.truth(c); known {
		if !nonzero {
			then = els
		}
		return w.exec(then)
	}
	before := w.d.fork()
	if err := w.exec(then); err != nil {
		return err
	}
	taken := w.d.swap(before)
	if err := w.exec(els); err != nil {
		return err
	}
	return w.d.join(c, taken)
}

// match is whether one of labels equals subj, whose number is sv if
// svKnown, stopping at the first label known to.
func (w *walker[V, D]) match(labels []verilog.Expr, subj V, sv uint64, svKnown bool) (hit V, known, nonzero bool, err error) {
	known = true // and false: no label yet
	for _, l := range labels {
		if n, ok := l.(*verilog.Number); ok && svKnown {
			lit := n.Value // as eval computes it
			if n.Width != 0 {
				lit &= mask(n.Width)
			}
			if lit == sv {
				return hit, true, true, nil
			}
			continue
		}
		lv, _, err := w.eval(l)
		if err != nil {
			return hit, false, false, err
		}
		eq := w.d.binary("==", lv, subj, 1)
		if !known {
			eq = w.d.binary("||", hit, eq, 1)
		}
		hit = eq
		if known, nonzero = w.truth(hit); known && nonzero {
			break
		}
	}
	return hit, known, nonzero, nil
}

// update executes lhs = rhs as statement s.
func (w *walker[V, D]) update(s verilog.Stmt, lhs, rhs verilog.Expr) error {
	v, _, err := w.eval(rhs)
	if err == nil {
		err = w.assign(lhs, v)
	}
	if err != nil {
		return w.d.fail(s, err)
	}
	return nil
}

// assign resolves an lvalue and stores rhs into it.
func (w *walker[V, D]) assign(lhs verilog.Expr, rhs V) error {
	switch v := lhs.(type) {
	case *verilog.Ident:
		sig, ok := w.scope.signals[v.Name]
		if !ok {
			return fmt.Errorf("rtl: unknown lvalue %q", v.Name)
		}
		return w.d.store(sig, w.d.num(mask(sig.Width), sig.Width), rhs)

	case *verilog.Index:
		base, ok := v.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("rtl: unsupported indexed lvalue")
		}
		idx, _, err := w.eval(v.Idx)
		if err != nil {
			return err
		}
		if mem, isMem := w.scope.memories[base.Name]; isMem {
			return w.d.storeWord(mem, idx, rhs)
		}
		sig, ok := w.scope.signals[base.Name]
		if !ok {
			return fmt.Errorf("rtl: unknown lvalue %q", base.Name)
		}
		return w.storeAt(sig, 1, idx, rhs) // past the width the mask is empty

	case *verilog.RangeSel:
		sig, lo, width, err := RangeTarget(v, w.scope)
		if err != nil {
			return err
		}
		return w.storeAt(sig, mask(width), w.d.num(lo, 32), rhs)

	case *verilog.Concat:
		// MSB-first: the first part takes the most significant bits.
		var total uint
		for _, p := range v.Parts {
			pw, err := WidthOf(p, w.scope)
			if err != nil {
				return err
			}
			total += pw
		}
		shift := total
		for _, p := range v.Parts {
			pw, _ := WidthOf(p, w.scope)
			shift -= pw
			if err := w.assign(p, w.d.sel(rhs, uint64(shift), pw)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("rtl: unsupported lvalue %T", lhs)
}

// storeAt writes the bits m<<at of sig from rhs<<at: a bit or a part
// select.
func (w *walker[V, D]) storeAt(sig *Signal, m uint64, at, rhs V) error {
	return w.d.store(sig, w.d.binary("<<", w.d.num(m, sig.Width), at, sig.Width), w.d.binary("<<", rhs, at, sig.Width))
}

// RangeTarget resolves the part-select lvalue x = sig[hi:lo] to sig,
// lo and the width hi-lo+1, which must lie inside sig.
func RangeTarget(x *verilog.RangeSel, scope *Scope) (sig *Signal, lo uint64, w uint, err error) {
	base, ok := x.X.(*verilog.Ident)
	if !ok {
		return nil, 0, 0, fmt.Errorf("rtl: unsupported part-select lvalue")
	}
	if sig, ok = scope.signals[base.Name]; !ok {
		return nil, 0, 0, fmt.Errorf("rtl: unknown lvalue %q", base.Name)
	}
	hi, err := ConstEval(x.MSB, scope.Param)
	if err == nil {
		lo, err = ConstEval(x.LSB, scope.Param)
	}
	if err == nil && (hi < lo || hi >= uint64(sig.Width)) {
		err = fmt.Errorf("rtl: part-select [%d:%d] out of range of %s", hi, lo, sig.Name)
	}
	return sig, lo, uint(hi-lo) + 1, err
}

// binaryWidth is the width of x op y for operands of widths wx and wy,
// 0 if an operand it needs has none; ok is false for an operator the
// walker does not know.
func binaryWidth(op string, wx, wy uint) (w uint, ok bool) {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
		return 1, true
	case "<<", ">>":
		return wx, true
	case "+", "-", "*", "/", "%", "&", "|", "^":
		if wx == 0 || wy == 0 {
			return 0, true
		}
		return max(wx, wy), true
	}
	return 0, false
}
