package bc

import (
	"fmt"

	"hardsnap/internal/rtl"
	"hardsnap/internal/verilog"
)

// maskOf returns a bitmask with the w low bits set (mirror of
// rtl.mask, which is unexported).
func maskOf(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Compile lowers an elaborated design to bytecode. It returns an
// error for any construct whose compiled form could diverge from the
// interpreter — unknown identifiers, non-constant part-select bounds,
// lvalue shapes assignTo rejects, or write-ordering patterns the
// activation engine cannot preserve (a register written by more than
// one sequential block, a memory written by more than one comb node).
// Callers fall back to the interpreter on error.
func Compile(d *rtl.Design) (*Program, error) {
	p := &Program{
		sigCombReaders: make([][]int32, len(d.Signals)),
		sigCombDriver:  make([]int32, len(d.Signals)),
		sigSeqTouch:    make([][]int32, len(d.Signals)),
		memCombReaders: make([][]int32, len(d.Memories)),
		memCombWriters: make([][]int32, len(d.Memories)),
		memSeqTouch:    make([][]int32, len(d.Memories)),
	}
	for i := range p.sigCombDriver {
		p.sigCombDriver[i] = -1
	}
	p.combs = make([][]op, 0, len(d.Combs))
	for i, node := range d.Combs {
		c := newComp(p, node.Scope, false)
		var err error
		if node.Assign != nil {
			err = c.assign(node.Assign.LHS, node.Assign.RHS)
		} else {
			err = c.stmt(node.Block)
		}
		if err != nil {
			return nil, fmt.Errorf("bc: comb node %d: %w", i, err)
		}
		if c.cur != 0 {
			return nil, fmt.Errorf("bc: internal: comb node %d leaves stack depth %d", i, c.cur)
		}
		p.combs = append(p.combs, c.ops)
		if c.max > p.stackMax {
			p.stackMax = c.max
		}
		for id := range c.reads {
			p.sigCombReaders[id] = append(p.sigCombReaders[id], int32(i))
		}
		for id := range c.writes {
			p.sigCombDriver[id] = int32(i)
		}
		for id := range c.memReads {
			p.memCombReaders[id] = append(p.memCombReaders[id], int32(i))
		}
		for id := range c.memWrites {
			// Two comb nodes writing one memory: the interpreter
			// re-runs both every sweep, so readers ordered between
			// them observe the earlier node's value; activation would
			// skip the quiescent one and break that ordering.
			if len(p.memCombWriters[id]) > 0 {
				return nil, fmt.Errorf("bc: memory %s written by multiple comb nodes", d.Memories[id].Name)
			}
			p.memCombWriters[id] = append(p.memCombWriters[id], int32(i))
		}
	}
	p.seqs = make([][]op, 0, len(d.Seqs))
	seqSigWriter := make(map[int]int)
	seqMemWriter := make(map[int]int)
	for i, b := range d.Seqs {
		c := newComp(p, b.Scope, true)
		if err := c.stmt(b.Body); err != nil {
			return nil, fmt.Errorf("bc: seq block %d: %w", i, err)
		}
		if c.cur != 0 {
			return nil, fmt.Errorf("bc: internal: seq block %d leaves stack depth %d", i, c.cur)
		}
		p.seqs = append(p.seqs, c.ops)
		if c.max > p.stackMax {
			p.stackMax = c.max
		}
		for id := range c.writes {
			// Last-write-wins across blocks requires running every
			// writer every cycle; activation cannot guarantee that,
			// so multi-driven registers fall back to the interpreter.
			if prev, dup := seqSigWriter[id]; dup && prev != i {
				return nil, fmt.Errorf("bc: register %s written by multiple sequential blocks", d.Signals[id].Name)
			}
			seqSigWriter[id] = i
		}
		for id := range c.memWrites {
			if prev, dup := seqMemWriter[id]; dup && prev != i {
				return nil, fmt.Errorf("bc: memory %s written by multiple sequential blocks", d.Memories[id].Name)
			}
			seqMemWriter[id] = i
		}
		touched := func(ids map[int]struct{}, fan [][]int32) {
			for id := range ids {
				n := len(fan[id])
				if n > 0 && fan[id][n-1] == int32(i) {
					continue // already recorded via the other set
				}
				fan[id] = append(fan[id], int32(i))
			}
		}
		touched(c.reads, p.sigSeqTouch)
		touched(c.writes, p.sigSeqTouch)
		touched(c.memReads, p.memSeqTouch)
		touched(c.memWrites, p.memSeqTouch)
	}
	if p.stackMax == 0 {
		p.stackMax = 1
	}
	return p, nil
}

// comp compiles one comb node or sequential block.
type comp struct {
	prog  *Program // owner of the case tables this node's ops index
	scope *rtl.Scope
	seq   bool // nonblocking store opcodes
	ops   []op

	// cur/max track value-stack depth so the engine can size its
	// stack once; every statement is depth-neutral, every expression
	// nets exactly one push.
	cur, max int

	reads     map[int]struct{}
	writes    map[int]struct{}
	memReads  map[int]struct{}
	memWrites map[int]struct{}
}

func newComp(p *Program, scope *rtl.Scope, seq bool) *comp {
	return &comp{
		prog:      p,
		scope:     scope,
		seq:       seq,
		reads:     make(map[int]struct{}),
		writes:    make(map[int]struct{}),
		memReads:  make(map[int]struct{}),
		memWrites: make(map[int]struct{}),
	}
}

func (c *comp) emit(o op) int {
	c.ops = append(c.ops, o)
	return len(c.ops) - 1
}

func (c *comp) push() {
	c.cur++
	if c.cur > c.max {
		c.max = c.cur
	}
}

func (c *comp) pop(n int) { c.cur -= n }

// patch sets the jump target of instruction i to the next emitted op.
func (c *comp) patch(i int) { c.ops[i].b = int32(len(c.ops)) }

// read records that the node reads sig: a fused operand enters the
// read set exactly as an opLoad of it would, so activation fanout
// does not depend on how the operand was emitted.
func (c *comp) read(sig *rtl.Signal) { c.reads[sig.ID] = struct{}{} }

// signal resolves x when it is a bare signal name.
func (c *comp) signal(x verilog.Expr) (*rtl.Signal, bool) {
	if id, ok := x.(*verilog.Ident); ok {
		return c.scope.Signal(id.Name)
	}
	return nil, false
}

// maskShift is the b operand of an L- or K-form whose result is
// masked to w bits: rmask(maskShift(w)) == maskOf(w).
func maskShift(w uint) int32 {
	if w >= 64 {
		return 0
	}
	return int32(64 - w)
}

// jumpIfZero emits the conditional jump of an if or a ternary and
// returns its index for patch. A bare signal is tested in place
// (opJzL); any other condition is evaluated onto the stack (opJz).
func (c *comp) jumpIfZero(cond verilog.Expr) (int, error) {
	if sig, ok := c.signal(cond); ok {
		c.read(sig)
		return c.emit(op{code: opJzL, a: int32(sig.ID), val: maskOf(sig.Width)}), nil
	}
	if err := c.expr(cond); err != nil {
		return 0, err
	}
	c.pop(1)
	return c.emit(op{code: opJz}), nil
}

func (c *comp) assign(lhs, rhs verilog.Expr) error {
	if err := c.expr(rhs); err != nil {
		return err
	}
	return c.store(lhs)
}

func (c *comp) stmt(s verilog.Stmt) error {
	switch v := s.(type) {
	case *verilog.Block:
		for _, sub := range v.Stmts {
			if err := c.stmt(sub); err != nil {
				return err
			}
		}
		return nil

	case *verilog.If:
		jz, err := c.jumpIfZero(v.Cond)
		if err != nil {
			return err
		}
		if err := c.stmt(v.Then); err != nil {
			return err
		}
		if v.Else == nil {
			c.patch(jz)
			return nil
		}
		jmp := c.emit(op{code: opJmp})
		c.patch(jz)
		if err := c.stmt(v.Else); err != nil {
			return err
		}
		c.patch(jmp)
		return nil

	case *verilog.Case:
		return c.caseStmt(v)

	case *verilog.NonBlocking:
		return c.assign(v.LHS, v.RHS)

	case *verilog.Blocking:
		return c.assign(v.LHS, v.RHS)
	}
	return fmt.Errorf("cannot compile statement %T", s)
}

// maxCaseTable bounds a case jump table's length: a case whose largest
// label is at or above it keeps the compare chain, so what Compile
// allocates stays proportional to the source, not to a label's value
// (custom peripheral sources come from outside the program). 1024
// covers every corpus peripheral: 8-bit address decodes and the
// 256-entry AES S-box.
const maxCaseTable = 1024

// numberVal is the value EvalExpr computes for a literal.
func numberVal(n *verilog.Number) uint64 {
	if n.Width != 0 {
		return n.Value & maskOf(n.Width)
	}
	return n.Value
}

// constant returns the value EvalExpr computes for x when no run-time
// state can change it: a literal, or an identifier expr would resolve
// to a parameter (signals shadow parameters there, so they do here).
func (c *comp) constant(x verilog.Expr) (uint64, bool) {
	switch v := x.(type) {
	case *verilog.Number:
		return numberVal(v), true
	case *verilog.Ident:
		if _, isSig := c.scope.Signal(v.Name); !isSig {
			return c.scope.Param(v.Name)
		}
	}
	return 0, false
}

// caseTable builds the jump table of a case whose labels are all
// compile-time constants below maxCaseTable, or returns nil when the
// case must keep the compare chain. Entry v holds the ordinal (among
// labelled items) of the first item listing v — the interpreter's
// first-match-in-item-order priority, so a duplicate label in a later
// item is dead exactly as it is there — and -1 where no item does.
// Labels are collected before anything is allocated, so an over-cap
// label costs O(labels), never O(label value).
func (c *comp) caseTable(v *verilog.Case) []int32 {
	type label struct {
		val  uint64
		item int32
	}
	var labels []label
	var size uint64
	item := int32(0)
	for _, it := range v.Items {
		if it.Labels == nil {
			continue
		}
		for _, l := range it.Labels {
			val, ok := c.constant(l)
			if !ok || val >= maxCaseTable {
				return nil
			}
			labels = append(labels, label{val, item})
			if val >= size {
				size = val + 1
			}
		}
		item++
	}
	if labels == nil {
		return nil
	}
	table := make([]int32, size)
	for i := range table {
		table[i] = -1
	}
	for _, l := range labels {
		if table[l.val] < 0 {
			table[l.val] = l.item
		}
	}
	return table
}

// caseStmt lays out a case as: the dispatch (first match jumps to its
// body, preserving the interpreter's first-match-in-item-order
// priority), fallthrough jump to the default, then the bodies. The
// dispatch is one table op when caseTable can build one: it consumes
// the subject, which it reads in place when the subject is a bare
// signal (opCaseTableL) and pops otherwise (opCaseTable). Without a
// table the subject stays on the stack for a compare per label, and
// each body pops it first. Labels are pure expressions, so evaluating
// them eagerly (where the interpreter stops at the first match) cannot
// change the outcome.
func (c *comp) caseStmt(v *verilog.Case) error {
	table := c.caseTable(v)
	if sig, ok := c.signal(v.Subject); ok && table != nil {
		c.read(sig)
		c.emit(op{code: opCaseTableL, a: int32(sig.ID), b: int32(len(c.prog.caseTables)), val: maskOf(sig.Width)})
	} else {
		if err := c.expr(v.Subject); err != nil {
			return err
		}
		if table != nil {
			c.emit(op{code: opCaseTable, a: int32(len(c.prog.caseTables))})
			c.pop(1)
		}
	}
	if table != nil {
		c.prog.caseTables = append(c.prog.caseTables, table)
	}
	entry := c.cur // depth at each body, the subject still on the stack for a chain
	var matches [][]int
	var deflt verilog.Stmt
	for _, item := range v.Items {
		if item.Labels == nil {
			// Like the interpreter, a later default wins.
			deflt = item.Body
			continue
		}
		if table != nil {
			continue
		}
		var js []int
		for _, l := range item.Labels {
			if err := c.expr(l); err != nil {
				return err
			}
			js = append(js, c.emit(op{code: opCaseEq}))
			c.pop(1)
		}
		matches = append(matches, js)
	}
	toDefault := c.emit(op{code: opJmp})
	var bodies []int32 // pc of each labelled item's body, in item order
	var ends []int
	for _, item := range v.Items {
		if item.Labels == nil {
			continue
		}
		if table == nil {
			for _, j := range matches[len(bodies)] {
				c.patch(j)
			}
		}
		bodies = append(bodies, int32(len(c.ops)))
		c.cur = entry
		c.popSubject(table)
		if err := c.stmt(item.Body); err != nil {
			return err
		}
		ends = append(ends, c.emit(op{code: opJmp}))
	}
	for i, item := range table {
		if item >= 0 {
			table[i] = bodies[item]
		}
	}
	c.patch(toDefault)
	c.cur = entry
	c.popSubject(table)
	if deflt != nil {
		if err := c.stmt(deflt); err != nil {
			return err
		}
	}
	for _, j := range ends {
		c.patch(j)
	}
	return nil
}

// popSubject starts a case body or the default: it drops the subject
// a compare chain left on the stack; a table dispatch has consumed it.
func (c *comp) popSubject(table []int32) {
	if table == nil {
		c.emit(op{code: opPop})
		c.pop(1)
	}
}

// binOps maps a binary operator to its stack opcode, whether the
// result is masked to the width of the whole expression, and its L-
// and K-forms (0, which is opConst and never a fused form, where the
// operator has none).
var binOps = map[string]struct {
	code   opcode
	masked bool
	l, k   opcode
}{
	"+":  {opAdd, true, opAddL, opAddK},
	"-":  {opSub, true, opSubL, opSubK},
	"*":  {opMul, true, 0, 0},
	"/":  {opDiv, true, 0, 0},
	"%":  {opMod, true, 0, 0},
	"&":  {opAnd, false, opAndL, opAndK},
	"|":  {opOr, true, opOrL, opOrK},
	"^":  {opXor, true, opXorL, opXorK},
	"&&": {opLogAnd, false, 0, 0},
	"||": {opLogOr, false, 0, 0},
	"==": {opEq, false, opEqL, opEqK},
	"!=": {opNe, false, opNeL, opNeK},
	"<":  {opLt, false, 0, 0},
	"<=": {opLe, false, 0, 0},
	">":  {opGt, false, 0, 0},
	">=": {opGe, false, 0, 0},
	"<<": {opShl, true, 0, opShlK},
	">>": {opShr, false, 0, opShrK},
}

// fusedBinary emits x = X op Y as an L- or K-form when Y is a signal
// or a constant the operator has a form for, with X already on the
// stack, and reports whether it did. A constant shift count of 64 or
// more keeps the stack form, which yields 0 for it.
func (c *comp) fusedBinary(x *verilog.Binary) (bool, error) {
	spec, ok := binOps[x.Op]
	if !ok {
		return false, nil
	}
	o := op{}
	if sig, isSig := c.signal(x.Y); isSig && spec.l != 0 {
		c.read(sig)
		o = op{code: spec.l, a: int32(sig.ID), val: maskOf(sig.Width)}
	} else if k, isConst := c.constant(x.Y); isConst && spec.k != 0 &&
		(k < 64 || (spec.k != opShlK && spec.k != opShrK)) {
		o = op{code: spec.k, val: k}
	} else {
		return false, nil
	}
	w, err := rtl.WidthOf(x, c.scope)
	if err != nil {
		return false, err
	}
	o.b = maskShift(w)
	c.emit(o)
	return true, nil
}

// partSelect resolves the constant bounds of x[hi:lo], rejecting what
// EvalExpr rejects.
func (c *comp) partSelect(v *verilog.RangeSel) (hi, lo uint64, err error) {
	if hi, err = rtl.ConstEval(v.MSB, c.scope); err != nil {
		return 0, 0, err
	}
	if lo, err = rtl.ConstEval(v.LSB, c.scope); err != nil {
		return 0, 0, err
	}
	if hi < lo || hi-lo+1 > 64 {
		return 0, 0, fmt.Errorf("bad part select [%d:%d]", hi, lo)
	}
	return hi, lo, nil
}

// sigSelect is a constant part or bit select of a signal, resolved to
// the one read Vals[sig]>>lo & mask. For sig[hi:lo] the mask folds
// the signal's: (v&m)>>lo & r is v>>lo & (r & m>>lo); for sig[k] it is
// 1, since (v&m)>>k & 1 is v>>k & 1 below the width. A select at or
// past the width has mask 0: it is the constant 0.
type sigSelect struct {
	sig   *rtl.Signal
	lo    uint64
	mask  uint64
	width uint // of the select
	bit   bool // sig[k]
}

// selectOf resolves x when it is a constant part or bit select of a
// signal, entering the signal in the read set, and reports whether it
// is one.
func (c *comp) selectOf(x verilog.Expr) (sigSelect, bool, error) {
	switch v := x.(type) {
	case *verilog.Index:
		sig, isSig := c.signal(v.X)
		k, isConst := c.constant(v.Idx)
		if !isSig || !isConst {
			return sigSelect{}, false, nil
		}
		c.read(sig)
		s := sigSelect{sig: sig, lo: k, width: 1, bit: true}
		if k < uint64(sig.Width) {
			s.mask = 1
		}
		return s, true, nil
	case *verilog.RangeSel:
		sig, ok := c.signal(v.X)
		if !ok {
			return sigSelect{}, false, nil
		}
		hi, lo, err := c.partSelect(v)
		if err != nil {
			return sigSelect{}, false, err
		}
		c.read(sig)
		w := uint(hi-lo) + 1
		return sigSelect{sig: sig, lo: lo, mask: maskOf(w) & (maskOf(sig.Width) >> lo), width: w}, true, nil
	}
	return sigSelect{}, false, nil
}

// load is the op that pushes the select.
func (s sigSelect) load() op {
	switch {
	case s.mask == 0:
		return op{code: opConst}
	case s.bit:
		return op{code: opLoadBit, a: int32(s.sig.ID), b: int32(s.lo)}
	}
	return op{code: opLoadRange, a: int32(s.sig.ID), b: int32(s.lo), val: s.mask}
}

// concat is the op that appends the select as a concat part.
func (s sigSelect) concat() op {
	switch {
	case s.mask == 0:
		return op{code: opConcatK, b: int32(s.width)}
	case s.bit:
		return op{code: opConcatBit, a: int32(s.sig.ID), b: int32(s.lo)}
	}
	return op{code: opConcatRange, a: int32(s.sig.ID), b: int32(s.width), c: int32(s.lo), val: s.mask}
}

// concatPart emits one concat part after the first as a fused op when
// it is a constant, a signal or a constant select of a signal, and
// reports whether it did.
func (c *comp) concatPart(part verilog.Expr) (bool, error) {
	if k, ok := c.constant(part); ok {
		w, err := rtl.WidthOf(part, c.scope)
		if err != nil {
			return false, err
		}
		c.emit(op{code: opConcatK, b: int32(w), val: k & maskOf(w)})
		return true, nil
	}
	if sig, ok := c.signal(part); ok {
		c.read(sig)
		c.emit(op{code: opConcatL, a: int32(sig.ID), b: int32(sig.Width), val: maskOf(sig.Width)})
		return true, nil
	}
	s, ok, err := c.selectOf(part)
	if ok {
		c.emit(s.concat())
	}
	return ok, err
}

// fits reports whether the value x's ops push always fits in
// WidthOf(x) bits, so a concat's first part needs no mask: every
// masked operator, selects, reductions and comparisons, and a signal.
func (c *comp) fits(x verilog.Expr) bool {
	switch v := x.(type) {
	case *verilog.Ident:
		_, isSig := c.scope.Signal(v.Name)
		return isSig
	case *verilog.RangeSel, *verilog.Index, *verilog.Concat, *verilog.Repeat, *verilog.Unary:
		return true
	case *verilog.Binary:
		return v.Op != "&" && v.Op != ">>"
	}
	return false
}

// expr emits ops that push the expression's value; net stack effect
// is exactly +1. Every WidthOf the interpreter would perform at eval
// time happens here, so sizing errors become compile errors.
func (c *comp) expr(x verilog.Expr) error {
	if s, ok, err := c.selectOf(x); ok || err != nil {
		if ok {
			c.emit(s.load())
			c.push()
		}
		return err
	}
	switch v := x.(type) {
	case *verilog.Number:
		c.emit(op{code: opConst, val: numberVal(v)})
		c.push()
		return nil

	case *verilog.Ident:
		if s, ok := c.scope.Signal(v.Name); ok {
			c.emit(op{code: opLoad, a: int32(s.ID), val: maskOf(s.Width)})
			c.push()
			c.reads[s.ID] = struct{}{}
			return nil
		}
		if pv, ok := c.scope.Param(v.Name); ok {
			// Parameters evaluate unmasked, exactly like EvalExpr.
			c.emit(op{code: opConst, val: pv})
			c.push()
			return nil
		}
		return fmt.Errorf("unknown identifier %q", v.Name)

	case *verilog.Unary:
		if err := c.expr(v.X); err != nil {
			return err
		}
		// The interpreter computes the operand width before
		// dispatching on the operator, so an un-sizable operand is an
		// error even for width-independent operators; mirror that.
		w, err := rtl.WidthOf(v.X, c.scope)
		if err != nil {
			return err
		}
		switch v.Op {
		case "~":
			c.emit(op{code: opNot, val: maskOf(w)})
		case "-":
			c.emit(op{code: opNeg, val: maskOf(w)})
		case "!":
			c.emit(op{code: opLogNot})
		case "&":
			c.emit(op{code: opRedAnd, val: maskOf(w)})
		case "|":
			c.emit(op{code: opRedOr})
		case "^":
			c.emit(op{code: opRedXor})
		default:
			return fmt.Errorf("unknown unary operator %q", v.Op)
		}
		return nil

	case *verilog.Binary:
		if err := c.expr(v.X); err != nil {
			return err
		}
		if fused, err := c.fusedBinary(v); fused || err != nil {
			return err
		}
		if err := c.expr(v.Y); err != nil {
			return err
		}
		spec, ok := binOps[v.Op]
		if !ok {
			return fmt.Errorf("unknown binary operator %q", v.Op)
		}
		// Unconditional, like EvalExpr: WidthOf runs for every
		// operator even when the mask is unused.
		w, err := rtl.WidthOf(x, c.scope)
		if err != nil {
			return err
		}
		o := op{code: spec.code}
		if spec.masked || spec.code == opDiv || spec.code == opMod {
			o.val = maskOf(w)
		}
		c.emit(o)
		c.pop(1)
		return nil

	case *verilog.Ternary:
		jz, err := c.jumpIfZero(v.Cond)
		if err != nil {
			return err
		}
		d := c.cur
		if err := c.expr(v.Then); err != nil {
			return err
		}
		jmp := c.emit(op{code: opJmp})
		c.patch(jz)
		c.cur = d
		if err := c.expr(v.Else); err != nil {
			return err
		}
		c.patch(jmp)
		return nil

	case *verilog.Index:
		if base, ok := v.X.(*verilog.Ident); ok {
			if m, isMem := c.scope.Memory(base.Name); isMem {
				if err := c.expr(v.Idx); err != nil {
					return err
				}
				c.emit(op{code: opLoadMem, a: int32(m.ID), b: int32(m.Depth), val: maskOf(m.Width)})
				c.memReads[m.ID] = struct{}{}
				return nil // pops idx, pushes element: net +1 overall
			}
		}
		if err := c.expr(v.X); err != nil {
			return err
		}
		if err := c.expr(v.Idx); err != nil {
			return err
		}
		c.emit(op{code: opBit})
		c.pop(1)
		return nil

	case *verilog.RangeSel:
		if err := c.expr(v.X); err != nil {
			return err
		}
		hi, lo, err := c.partSelect(v)
		if err != nil {
			return err
		}
		sh := lo
		if sh > 64 {
			sh = 64 // uint64>>64 is 0 in Go, same as the interpreter's x>>lo
		}
		c.emit(op{code: opRange, b: int32(sh), val: maskOf(uint(hi-lo) + 1)})
		return nil

	case *verilog.Concat:
		// The interpreter folds out<<pw | pv&mask(pw) from out = 0, so
		// the first part is just pv&mask(pw): no seed, and a mask only
		// when the part's value can exceed its width.
		if len(v.Parts) == 0 {
			c.emit(op{code: opConst})
			c.push()
			return nil
		}
		for i, part := range v.Parts {
			if i > 0 {
				if fused, err := c.concatPart(part); fused || err != nil {
					if err != nil {
						return err
					}
					continue
				}
			} else if k, ok := c.constant(part); ok {
				w, err := rtl.WidthOf(part, c.scope)
				if err != nil {
					return err
				}
				c.emit(op{code: opConst, val: k & maskOf(w)})
				c.push()
				continue
			}
			if err := c.expr(part); err != nil {
				return err
			}
			w, err := rtl.WidthOf(part, c.scope)
			if err != nil {
				return err
			}
			if i == 0 {
				if !c.fits(part) {
					c.emit(op{code: opRange, val: maskOf(w)})
				}
				continue
			}
			c.emit(op{code: opConcat, b: int32(w), val: maskOf(w)})
			c.pop(1)
		}
		return nil

	case *verilog.Repeat:
		n, err := rtl.ConstEval(v.Count, c.scope)
		if err != nil {
			return err
		}
		if err := c.expr(v.X); err != nil {
			return err
		}
		w, err := rtl.WidthOf(v.X, c.scope)
		if err != nil {
			return err
		}
		// Beyond 64 iterations every earlier term has shifted out of
		// the 64-bit result (w >= 1), so cap the unrolled count.
		if n > 64 {
			n = 64
		}
		c.emit(op{code: opRepeat, a: int32(n), b: int32(w), val: maskOf(w)})
		return nil
	}
	return fmt.Errorf("cannot compile expression %T", x)
}

// store pops the value on top of the stack into the lvalue, mirroring
// assignTo: full-signal writes mask to signal width, bit writes drop
// out-of-range indexes, memory writes defer masking to commit time
// (sequential) or mask immediately (comb), part selects merge under a
// shifted mask, concats split MSB-first.
func (c *comp) store(lhs verilog.Expr) error {
	switch v := lhs.(type) {
	case *verilog.Ident:
		sig, ok := c.scope.Signal(v.Name)
		if !ok {
			return fmt.Errorf("unknown lvalue %q", v.Name)
		}
		code := opStore
		if c.seq {
			code = opNBStore
		}
		c.emit(op{code: code, a: int32(sig.ID), val: maskOf(sig.Width)})
		c.pop(1)
		c.writes[sig.ID] = struct{}{}
		return nil

	case *verilog.Index:
		base, ok := v.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("unsupported indexed lvalue")
		}
		if m, isMem := c.scope.Memory(base.Name); isMem {
			if err := c.expr(v.Idx); err != nil {
				return err
			}
			code := opStoreMem
			if c.seq {
				code = opNBStoreMem
			}
			c.emit(op{code: code, a: int32(m.ID), b: int32(m.Depth), val: maskOf(m.Width)})
			c.pop(2)
			c.memWrites[m.ID] = struct{}{}
			return nil
		}
		sig, ok := c.scope.Signal(base.Name)
		if !ok {
			return fmt.Errorf("unknown lvalue %q", base.Name)
		}
		if err := c.expr(v.Idx); err != nil {
			return err
		}
		code := opStoreBit
		if c.seq {
			code = opNBStoreBit
		}
		c.emit(op{code: code, a: int32(sig.ID), b: int32(sig.Width)})
		c.pop(2)
		c.writes[sig.ID] = struct{}{}
		c.reads[sig.ID] = struct{}{} // read-modify-write
		return nil

	case *verilog.RangeSel:
		base, ok := v.X.(*verilog.Ident)
		if !ok {
			return fmt.Errorf("unsupported part-select lvalue")
		}
		sig, ok := c.scope.Signal(base.Name)
		if !ok {
			return fmt.Errorf("unknown lvalue %q", base.Name)
		}
		hi, err := rtl.ConstEval(v.MSB, c.scope)
		if err != nil {
			return err
		}
		lo, err := rtl.ConstEval(v.LSB, c.scope)
		if err != nil {
			return err
		}
		if hi < lo || hi >= uint64(sig.Width) {
			return fmt.Errorf("part-select [%d:%d] out of range of %s", hi, lo, sig.Name)
		}
		w := uint(hi-lo) + 1
		code := opStoreRange
		if c.seq {
			code = opNBStoreRange
		}
		c.emit(op{code: code, a: int32(sig.ID), b: int32(lo), val: maskOf(w) << lo})
		c.pop(1)
		c.writes[sig.ID] = struct{}{}
		c.reads[sig.ID] = struct{}{} // read-modify-write
		return nil

	case *verilog.Concat:
		// MSB-first split of the RHS value sitting on the stack.
		widths := make([]uint, len(v.Parts))
		var total uint
		for i, part := range v.Parts {
			w, err := rtl.WidthOf(part, c.scope)
			if err != nil {
				return err
			}
			widths[i] = w
			total += w
		}
		shift := total
		for i, part := range v.Parts {
			shift -= widths[i]
			if i < len(v.Parts)-1 {
				c.emit(op{code: opDup})
				c.push()
			}
			sh := shift
			if sh > 64 {
				sh = 64
			}
			c.emit(op{code: opRange, b: int32(sh), val: maskOf(widths[i])})
			if err := c.store(part); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unsupported lvalue %T", lhs)
}
