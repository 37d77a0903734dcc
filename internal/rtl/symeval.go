package rtl

import (
	"errors"
	"fmt"

	"hardsnap/internal/expr"
	"hardsnap/internal/verilog"
)

// errUnsupported marks a construct the symbolic evaluator does not
// model: everything outside the forms the scan-chain pass emits (see
// SymStep). It means "no proof", not a fault in the design.
var errUnsupported = errors.New("unsupported by the symbolic evaluator")

// SymCycle is one clock edge of a design evaluated symbolically: every
// register, memory word and unpinned input is an expr variable, and
// the next value of each register and memory word is a term over
// them. A target whose next value could not be modeled carries the
// error instead of a term.
type SymCycle struct {
	d *Design
	b *expr.Builder

	cur    []*expr.Term   // by signal ID: registers and inputs
	curMem [][]*expr.Term // by memory ID and word

	next    []*expr.Term // by signal ID: registers
	nextErr []error
	nextMem [][]*expr.Term
	memErr  [][]error

	// wires memoizes the continuous assigns read so far; drivers is
	// the comb node driving each wire; busy guards against loops.
	wires   map[int]*expr.Term
	drivers map[int]*CombNode
	busy    map[int]bool
}

// SymStep evaluates one clock of d over fresh variables of b: a
// register or input reads as the variable named after the signal, a
// memory word as "<memory>[<word>]", and an input listed in pinned as
// that constant instead. It models
//
//   - if, on a condition that folds to a constant;
//   - nonblocking assigns to identifiers and to memory words at a
//     constant index;
//   - literals, parameters, concatenation, and bit and part selects
//     with constant bounds;
//   - wires driven by a continuous assign, evaluated when read.
//
// A write the evaluator cannot model leaves its target's next value
// as an error naming what is unsupported; every other target's next
// value is exact. Registers and memory words no block writes keep their
// variable.
func SymStep(d *Design, b *expr.Builder, pinned map[int]uint64) *SymCycle {
	c := &SymCycle{
		d:       d,
		b:       b,
		cur:     make([]*expr.Term, len(d.Signals)),
		curMem:  make([][]*expr.Term, len(d.Memories)),
		next:    make([]*expr.Term, len(d.Signals)),
		nextErr: make([]error, len(d.Signals)),
		nextMem: make([][]*expr.Term, len(d.Memories)),
		memErr:  make([][]error, len(d.Memories)),
		wires:   make(map[int]*expr.Term),
		drivers: make(map[int]*CombNode),
		busy:    make(map[int]bool),
	}
	for _, sig := range d.Signals {
		switch v, pin := pinned[sig.ID]; {
		case sig.IsInput && pin:
			c.cur[sig.ID] = b.Const(v, sig.Width)
		case sig.IsInput || sig.IsReg:
			c.cur[sig.ID] = b.Var(sig.Name, sig.Width)
		}
		c.next[sig.ID] = c.cur[sig.ID]
	}
	for _, m := range d.Memories {
		words := make([]*expr.Term, m.Depth)
		for i := range words {
			words[i] = b.Var(fmt.Sprintf("%s[%d]", m.Name, i), m.Width)
		}
		c.curMem[m.ID] = words
		c.nextMem[m.ID] = append([]*expr.Term(nil), words...)
		c.memErr[m.ID] = make([]error, m.Depth)
	}
	for _, n := range d.Combs {
		for id := range n.writes {
			c.drivers[id] = n
		}
	}
	for _, blk := range d.Seqs {
		c.exec(blk.Body, blk.Scope)
	}
	return c
}

// Cur returns the value of signal id before the edge: the variable
// (or pinned constant) of a register or input, or the term of a wire.
func (c *SymCycle) Cur(id int) (*expr.Term, error) {
	return c.signal(c.d.Signals[id])
}

// CurWord returns the variable of word i of memory id.
func (c *SymCycle) CurWord(id int, i uint) *expr.Term { return c.curMem[id][i] }

// Next returns the value of register id after the edge.
func (c *SymCycle) Next(id int) (*expr.Term, error) { return c.next[id], c.nextErr[id] }

// NextWord returns the value of word i of memory id after the edge.
func (c *SymCycle) NextWord(id int, i uint) (*expr.Term, error) {
	return c.nextMem[id][i], c.memErr[id][i]
}

func unsupported(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUnsupported, fmt.Sprintf(format, args...))
}

// exec runs a sequential statement, recording each write as its
// target's next value (nonblocking: reads see the values before the
// edge, and a later write replaces an earlier one).
func (c *SymCycle) exec(s verilog.Stmt, scope *Scope) {
	switch v := s.(type) {
	case *verilog.Block:
		for _, sub := range v.Stmts {
			c.exec(sub, scope)
		}
	case *verilog.If:
		cond, err := c.eval(v.Cond, scope)
		if err == nil {
			k, ok := cond.Const()
			switch {
			case !ok:
				err = unsupported("if on a condition that is not constant")
			case k != 0:
				c.exec(v.Then, scope)
				return
			case v.Else != nil:
				c.exec(v.Else, scope)
				return
			default:
				return
			}
		}
		c.poison(v, scope, err)
	case *verilog.NonBlocking:
		rhs, err := c.eval(v.RHS, scope)
		if err == nil {
			err = c.assign(v.LHS, rhs, scope)
		}
		if err != nil {
			c.poison(v, scope, err)
		}
	default:
		c.poison(s, scope, unsupported("%s statement", stmtKind(s)))
	}
}

// assign records rhs as the next value of a whole register or of a
// memory word at a constant index.
func (c *SymCycle) assign(lhs verilog.Expr, rhs *expr.Term, scope *Scope) error {
	switch v := lhs.(type) {
	case *verilog.Ident:
		sig, ok := scope.signals[v.Name]
		if !ok {
			return fmt.Errorf("rtl: unknown lvalue %q", v.Name)
		}
		c.next[sig.ID], c.nextErr[sig.ID] = c.fit(rhs, sig.Width), nil
		return nil
	case *verilog.Index:
		if base, ok := v.X.(*verilog.Ident); ok {
			if m, isMem := scope.memories[base.Name]; isMem {
				idx, err := constIndex(v.Idx, scope)
				if err != nil {
					return err
				}
				if idx < uint64(m.Depth) { // a write past the end is dropped
					c.nextMem[m.ID][idx], c.memErr[m.ID][idx] = c.fit(rhs, m.Width), nil
				}
				return nil
			}
		}
	}
	return unsupported("assignment to %s", exprKind(lhs))
}

// poison marks every target s writes as unmodeled.
func (c *SymCycle) poison(s verilog.Stmt, scope *Scope, err error) {
	var names []string
	collectTargets(s, &names)
	for _, name := range names {
		if sig, ok := scope.signals[name]; ok {
			c.next[sig.ID], c.nextErr[sig.ID] = nil, err
		} else if m, ok := scope.memories[name]; ok {
			clear(c.nextMem[m.ID])
			for i := range c.memErr[m.ID] {
				c.memErr[m.ID][i] = err
			}
		}
	}
}

// collectTargets lists the base names of every lvalue in s.
func collectTargets(s verilog.Stmt, out *[]string) {
	var lvalue func(verilog.Expr)
	lvalue = func(e verilog.Expr) {
		switch x := e.(type) {
		case *verilog.Ident:
			*out = append(*out, x.Name)
		case *verilog.Index:
			lvalue(x.X)
		case *verilog.RangeSel:
			lvalue(x.X)
		case *verilog.Concat:
			for _, p := range x.Parts {
				lvalue(p)
			}
		}
	}
	switch st := s.(type) {
	case *verilog.Block:
		for _, sub := range st.Stmts {
			collectTargets(sub, out)
		}
	case *verilog.If:
		collectTargets(st.Then, out)
		if st.Else != nil {
			collectTargets(st.Else, out)
		}
	case *verilog.Case:
		for _, item := range st.Items {
			collectTargets(item.Body, out)
		}
	case *verilog.NonBlocking:
		lvalue(st.LHS)
	case *verilog.Blocking:
		lvalue(st.LHS)
	}
}

// eval returns the term of x, whose width is WidthOf(x).
func (c *SymCycle) eval(x verilog.Expr, scope *Scope) (*expr.Term, error) {
	b := c.b
	switch v := x.(type) {
	case *verilog.Number:
		w := v.Width
		if w == 0 {
			// Unsized: 32 bits wide, but EvalExpr keeps the whole value.
			if w = 32; v.Value > expr.Mask(w) {
				return nil, unsupported("unsized literal %d wider than 32 bits", v.Value)
			}
		}
		if w > 64 {
			return nil, unsupported("%d-bit literal", w)
		}
		return b.Const(v.Value, w), nil

	case *verilog.Ident:
		if sig, ok := scope.signals[v.Name]; ok {
			return c.signal(sig)
		}
		if p, ok := scope.params[v.Name]; ok {
			if p > expr.Mask(32) {
				return nil, unsupported("parameter %s = %d wider than 32 bits", v.Name, p)
			}
			return b.Const(p, 32), nil
		}
		return nil, fmt.Errorf("rtl: unknown identifier %q", v.Name)

	case *verilog.Index:
		if base, ok := v.X.(*verilog.Ident); ok {
			if m, isMem := scope.memories[base.Name]; isMem {
				idx, err := constIndex(v.Idx, scope)
				if err != nil {
					return nil, err
				}
				if idx >= uint64(m.Depth) {
					return b.Const(0, m.Width), nil // out-of-range reads return zero
				}
				return c.curMem[m.ID][idx], nil
			}
		}
		val, err := c.eval(v.X, scope)
		if err != nil {
			return nil, err
		}
		idx, err := constIndex(v.Idx, scope)
		if err != nil {
			return nil, err
		}
		if idx >= uint64(val.Width()) {
			return b.Const(0, 1), nil
		}
		return b.Extract(val, uint(idx), 1), nil

	case *verilog.RangeSel:
		val, err := c.eval(v.X, scope)
		if err != nil {
			return nil, err
		}
		hi, err := constOnly(v.MSB, scope)
		if err != nil {
			return nil, unsupported("part select: %v", err)
		}
		lo, err := constOnly(v.LSB, scope)
		if err != nil {
			return nil, unsupported("part select: %v", err)
		}
		if hi < lo || hi-lo+1 > 64 {
			return nil, fmt.Errorf("rtl: bad part select [%d:%d]", hi, lo)
		}
		w := uint(hi-lo) + 1
		if lo >= uint64(val.Width()) {
			return b.Const(0, w), nil
		}
		avail := val.Width() - uint(lo)
		if avail >= w {
			return b.Extract(val, uint(lo), w), nil
		}
		return b.ZExt(b.Extract(val, uint(lo), avail), w), nil

	case *verilog.Concat:
		var out *expr.Term
		for _, p := range v.Parts {
			t, err := c.eval(p, scope)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = t
				continue
			}
			if out.Width()+t.Width() > 64 {
				return nil, unsupported("concatenation wider than 64 bits")
			}
			out = b.Concat(out, t)
		}
		if out == nil {
			return nil, unsupported("empty concatenation")
		}
		return out, nil
	}
	return nil, unsupported("%s expression", exprKind(x))
}

// signal returns the value of sig before the edge. A wire is the term
// of its continuous assign, evaluated once.
func (c *SymCycle) signal(sig *Signal) (*expr.Term, error) {
	if t := c.cur[sig.ID]; t != nil {
		return t, nil
	}
	if t, ok := c.wires[sig.ID]; ok {
		return t, nil
	}
	n := c.drivers[sig.ID]
	if n == nil || n.Assign == nil {
		return nil, unsupported("wire %s is not driven by a continuous assign", sig.Name)
	}
	if lhs, ok := n.Assign.LHS.(*verilog.Ident); !ok || n.Scope.signals[lhs.Name] != sig {
		return nil, unsupported("wire %s is driven through a select", sig.Name)
	}
	if c.busy[sig.ID] {
		return nil, unsupported("combinational loop through %s", sig.Name)
	}
	c.busy[sig.ID] = true
	t, err := c.eval(n.Assign.RHS, n.Scope)
	delete(c.busy, sig.ID)
	if err != nil {
		return nil, err
	}
	t = c.fit(t, sig.Width)
	c.wires[sig.ID] = t
	return t, nil
}

// fit truncates or zero-extends t to w bits, as an assignment does.
func (c *SymCycle) fit(t *expr.Term, w uint) *expr.Term {
	switch {
	case t.Width() > w:
		return c.b.Extract(t, 0, w)
	case t.Width() < w:
		return c.b.ZExt(t, w)
	}
	return t
}

// constIndex evaluates an index made of literals and parameters
// exactly as EvalExpr would; an index that reads a signal is
// unsupported.
func constIndex(x verilog.Expr, scope *Scope) (uint64, error) {
	if _, err := constOnly(x, scope); err != nil {
		return 0, unsupported("index that is not constant")
	}
	// constOnly succeeded, so x reads no signal and the empty state
	// is never touched.
	return EvalExpr(x, scope, &State{})
}

func stmtKind(s verilog.Stmt) string {
	switch s.(type) {
	case *verilog.Case:
		return "case"
	case *verilog.Blocking:
		return "blocking"
	}
	return fmt.Sprintf("%T", s)
}

func exprKind(x verilog.Expr) string {
	switch v := x.(type) {
	case *verilog.Unary:
		return "unary " + v.Op
	case *verilog.Binary:
		return "binary " + v.Op
	case *verilog.Ternary:
		return "conditional"
	case *verilog.Repeat:
		return "replication"
	case *verilog.Index:
		return "bit select"
	case *verilog.RangeSel:
		return "part select"
	}
	return fmt.Sprintf("%T", x)
}
