package rtl

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"

	"hardsnap/internal/expr"
	"hardsnap/internal/verilog"
)

// errUnsupported marks a construct the symbolic evaluator does not
// model (see SymStep). It means "no proof", not a fault in the design.
var errUnsupported = errors.New("unsupported by the symbolic evaluator")

func unsupported(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUnsupported, fmt.Sprintf(format, args...))
}

// SymCycle is one clock edge of a design evaluated symbolically: every
// register, memory word and unpinned input is an expr variable, and
// the next value of each register and memory word is a term over
// them. A target whose next value could not be modeled carries the
// error instead of a term.
type SymCycle struct {
	d *Design
	b *expr.Builder

	// cur is the value before the edge of each register, input and
	// memory word, by key: a signal ID, or memKey plus the word.
	cur    []*expr.Term
	memKey []int // by memory ID: the key of word 0
	// next is what the sequential blocks write, by key.
	next map[int]symVal
	// wires memoizes the settled wires read so far; drivers is the
	// comb node driving each wire (the elaborator refused loops).
	wires   map[int]symVal
	drivers map[int]*CombNode
	// combMem marks the memories a comb node writes: a settle
	// rewrites them, which is not modeled. Nil until combWritten.
	combMem map[int]bool
}

// symVal is a modeled value, or why it is not modeled.
type symVal struct {
	t   *expr.Term
	err error
}

// SymStep evaluates one clock of d over fresh variables of b: a
// register or input reads as the variable named after the signal, a
// memory word as "<memory>[<word>]", and an input listed in pinned as
// that constant instead. It runs the interpreter's walker in the term
// domain, so every construct the interpreter executes means the same
// here:
//
//   - every operator, with the interpreter's widths and masking;
//   - if and case on any condition: a condition that folds to a
//     constant takes one arm, any other runs every arm and merges
//     their writes through a mux;
//   - nonblocking assigns to registers, their bits and part selects,
//     and to memory words at an index that folds to a constant;
//   - wires, settled when read by running the comb node driving them
//     with blocking semantics;
//   - a signal nothing drives (an undriven wire, or a reg no block
//     writes), as the constant 0 it holds from power-on on both
//     engines: it is not state, and only the test seam sim.Poke
//     writes it.
//
// What it does not model leaves only the targets of the statement
// that needs it with an error instead of a term: a memory word read or
// written at an index that is not constant, a value wider than 64
// bits, a memory a comb node writes, and a wire a comb node leaves
// holding its value from an earlier settle. Every other target's next
// value is exact. Registers and memory words no block writes keep
// their variable.
func SymStep(d *Design, b *expr.Builder, pinned map[int]uint64) *SymCycle {
	c := &SymCycle{
		d:       d,
		b:       b,
		cur:     make([]*expr.Term, len(d.Signals)),
		memKey:  make([]int, len(d.Memories)),
		wires:   make(map[int]symVal),
		drivers: make(map[int]*CombNode),
	}
	for _, sig := range d.Signals {
		switch v, pin := pinned[sig.ID]; {
		case sig.IsInput && pin:
			c.cur[sig.ID] = b.Const(v, sig.Width)
		case sig.IsInput || sig.IsReg:
			c.cur[sig.ID] = b.Var(sig.Name, sig.Width)
		}
	}
	for _, m := range d.Memories {
		c.memKey[m.ID] = len(c.cur)
		for i := range m.Depth {
			c.cur = append(c.cur, b.Var(fmt.Sprintf("%s[%d]", m.Name, i), m.Width))
		}
	}
	for _, n := range d.Combs {
		for id := range n.writes {
			c.drivers[id] = n
		}
	}
	s := &sym{c: c, env: make(map[int]symVal, len(c.cur))}
	for _, blk := range d.Seqs {
		s.scope = blk.Scope
		w := walker[*expr.Term, *sym]{scope: blk.Scope, d: s}
		w.exec(blk.Body) // the term domain marks what fails instead of returning it
	}
	c.next = s.env
	return c
}

// Cur returns the value of signal id before the edge: the variable
// (or pinned constant) of a register or input, or the term of a wire.
func (c *SymCycle) Cur(id int) (*expr.Term, error) {
	if t := c.cur[id]; t != nil {
		return t, nil
	}
	if _, ok := c.wires[id]; !ok {
		c.settle(c.d.Signals[id])
	}
	return c.wires[id].t, c.wires[id].err
}

// CurWord returns the variable of word i of memory id.
func (c *SymCycle) CurWord(id int, i uint) *expr.Term { return c.cur[c.memKey[id]+int(i)] }

// Next returns the value of register id after the edge.
func (c *SymCycle) Next(id int) (*expr.Term, error) { return c.after(id) }

// NextWord returns the value of word i of memory id after the edge.
func (c *SymCycle) NextWord(id int, i uint) (*expr.Term, error) {
	if c.combWritten(id) {
		return nil, unsupported("memory %s written by combinational logic", c.d.Memories[id].Name)
	}
	return c.after(c.memKey[id] + int(i))
}

// after is the value of key after the edge: what a block wrote, or
// else its value before.
func (c *SymCycle) after(key int) (*expr.Term, error) {
	if v, ok := c.next[key]; ok {
		return v.t, v.err
	}
	return c.cur[key], nil
}

// combWritten reports whether a comb node writes memory id.
func (c *SymCycle) combWritten(id int) bool {
	if c.combMem == nil {
		c.combMem = make(map[int]bool)
		for _, n := range c.d.Combs {
			for _, name := range verilog.Targets(n.stmt()) {
				if m, ok := n.Scope.memories[name]; ok {
					c.combMem[m.ID] = true
				}
			}
		}
	}
	return c.combMem[id]
}

// settle runs the comb node driving wire sig and records the value of
// every wire it drives; a wire nothing drives is 0.
func (c *SymCycle) settle(sig *Signal) {
	n := c.drivers[sig.ID]
	if n == nil {
		c.wires[sig.ID] = symVal{t: c.b.Const(0, sig.Width)}
		return
	}
	s := &sym{c: c, scope: n.Scope, node: n, env: make(map[int]symVal)}
	w := walker[*expr.Term, *sym]{scope: n.Scope, d: s}
	w.exec(n.stmt())
	for id := range n.writes {
		c.wires[id] = s.get(s.env, id)
	}
}

// stmt is n as a statement: its always block, or its assign.
func (n *CombNode) stmt() verilog.Stmt {
	if n.Assign != nil {
		return &verilog.Blocking{LHS: n.Assign.LHS, RHS: n.Assign.RHS}
	}
	return n.Block
}

// sym is the term domain: the walker's values are terms of b. A term
// may be narrower or wider than its node's Verilog width; its zero
// extension is the interpreter's value.
type sym struct {
	c     *SymCycle
	scope *Scope
	// node is the comb node being settled (blocking: it reads its own
	// writes), nil in a sequential block (nonblocking: every read sees
	// the value before the edge).
	node *CombNode
	env  map[int]symVal // the writes so far, by key
}

// get is the value of key in the writes env: the last write, else
// its value before the edge in a sequential block; a wire a comb node
// did not write holds an earlier settle, which is not modeled.
func (s *sym) get(env map[int]symVal, key int) symVal {
	if v, ok := env[key]; ok {
		return v
	}
	if s.node != nil { // a comb node writes no memory word
		return symVal{err: unsupported("%s keeps its value from an earlier settle", s.c.d.Signals[key].Name)}
	}
	return symVal{t: s.c.cur[key]}
}

// resize truncates or zero-extends t to w bits.
func (s *sym) resize(t *expr.Term, w uint) *expr.Term {
	if t.Width() > w {
		return s.c.b.Extract(t, 0, w)
	}
	return s.c.b.ZExt(t, w)
}

// nonzero is the 1-bit term t != 0.
func (s *sym) nonzero(t *expr.Term) *expr.Term {
	return s.c.b.Ne(t, s.c.b.Const(0, t.Width()))
}

func (s *sym) num(v uint64, w uint) *expr.Term {
	if v > expr.Mask(w) {
		w = uint(bits.Len64(v))
	}
	return s.c.b.Const(v, w)
}

func (s *sym) signal(sig *Signal) (*expr.Term, error) {
	if s.node != nil && s.node.writes[sig.ID] {
		v := s.get(s.env, sig.ID)
		return v.t, v.err
	}
	return s.c.Cur(sig.ID)
}

func (s *sym) word(m *Memory, idx *expr.Term) (*expr.Term, error) {
	if s.c.combWritten(m.ID) {
		return nil, unsupported("memory %s written by combinational logic", m.Name)
	}
	k, ok := idx.Const()
	switch {
	case !ok:
		return nil, unsupported("index that is not constant")
	case k >= uint64(m.Depth):
		return s.c.b.Const(0, m.Width), nil
	}
	return s.c.cur[s.c.memKey[m.ID]+int(k)], nil
}

func (s *sym) unary(op string, x *expr.Term, w uint) *expr.Term {
	b := s.c.b
	switch op {
	case "~":
		return b.Not(s.resize(x, w))
	case "-":
		return b.Sub(b.Const(0, w), s.resize(x, w))
	case "!":
		return b.Eq(x, b.Const(0, x.Width()))
	case "&":
		wide := max(x.Width(), w)
		return b.Eq(b.ZExt(x, wide), b.Const(mask(w), wide))
	case "|":
		return s.nonzero(x)
	case "^":
		p := b.Extract(x, 0, 1)
		for i := uint(1); i < x.Width(); i++ {
			p = b.Xor(p, b.Extract(x, i, 1))
		}
		return p
	}
	panic("rtl: unknown unary operator " + op)
}

// termOps are the binary operators on operands of a common width;
// the masked ones are then cut to the result's width, as the
// interpreter masks them.
var termOps = map[string]struct {
	op     func(b *expr.Builder, x, y *expr.Term) *expr.Term
	masked bool
}{
	"+":  {(*expr.Builder).Add, true},
	"-":  {(*expr.Builder).Sub, true},
	"*":  {(*expr.Builder).Mul, true},
	"/":  {(*expr.Builder).UDiv, true},
	"%":  {(*expr.Builder).URem, true},
	"&":  {(*expr.Builder).And, false},
	"|":  {(*expr.Builder).Or, true},
	"^":  {(*expr.Builder).Xor, true},
	"==": {(*expr.Builder).Eq, false},
	"!=": {(*expr.Builder).Ne, false},
	"<":  {(*expr.Builder).Ult, false},
	"<=": {(*expr.Builder).Ule, false},
	">":  {func(b *expr.Builder, x, y *expr.Term) *expr.Term { return b.Ult(y, x) }, false},
	">=": {func(b *expr.Builder, x, y *expr.Term) *expr.Term { return b.Ule(y, x) }, false},
	"<<": {(*expr.Builder).Shl, true},
	">>": {(*expr.Builder).Lshr, false},
}

// binary computes on both operands zero-extended to a width that holds
// them and the result, so each operator sees the whole values the
// interpreter does.
func (s *sym) binary(op string, x, y *expr.Term, w uint) *expr.Term {
	b := s.c.b
	switch op {
	case "&&":
		return b.And(s.nonzero(x), s.nonzero(y))
	case "||":
		return b.Or(s.nonzero(x), s.nonzero(y))
	}
	f := termOps[op]
	wide := max(x.Width(), y.Width(), w)
	t := f.op(b, b.ZExt(x, wide), b.ZExt(y, wide))
	if f.masked {
		t = s.resize(t, w)
	}
	return t
}

func (s *sym) sel(x *expr.Term, lo uint64, w uint) *expr.Term {
	b := s.c.b
	if lo >= uint64(x.Width()) {
		return b.Const(0, w)
	}
	if avail := x.Width() - uint(lo); avail < w {
		return b.ZExt(b.Extract(x, uint(lo), avail), w)
	}
	return b.Extract(x, uint(lo), w)
}

func (s *sym) bit(x, idx *expr.Term) *expr.Term {
	b := s.c.b
	if k, ok := idx.Const(); ok {
		if k >= uint64(x.Width()) {
			return b.Const(0, 1)
		}
		return b.Extract(x, uint(k), 1)
	}
	wide := max(x.Width(), idx.Width())
	return b.Extract(b.Lshr(b.ZExt(x, wide), b.ZExt(idx, wide)), 0, 1)
}

func (s *sym) concat(hi, lo *expr.Term, w uint) (*expr.Term, error) {
	if hi.Width()+w > 64 {
		return nil, unsupported("value wider than 64 bits")
	}
	return s.c.b.Concat(hi, s.resize(lo, w)), nil
}

// mux selects through an And/Or on the condition replicated (sign
// extended) to the width of the arms.
func (s *sym) mux(c, t, e *expr.Term) *expr.Term {
	b := s.c.b
	cond := s.nonzero(c)
	if k, ok := cond.Const(); ok {
		if k != 0 {
			return t
		}
		return e
	}
	if t == e {
		return t
	}
	wide := max(t.Width(), e.Width())
	r := b.SExt(cond, wide)
	return b.Or(b.And(r, b.ZExt(t, wide)), b.And(b.Not(r), b.ZExt(e, wide)))
}

func (s *sym) known(t *expr.Term) (uint64, bool) { return t.Const() }

func (s *sym) store(sig *Signal, m, v *expr.Term) error {
	b := s.c.b
	m = s.resize(m, sig.Width)
	val := b.And(s.resize(v, sig.Width), m)
	if k, _ := m.Const(); k != mask(sig.Width) { // the other bits keep their value
		prev := s.get(s.env, sig.ID)
		if prev.err != nil {
			return prev.err
		}
		val = b.Or(b.And(prev.t, b.Not(m)), val)
	}
	s.env[sig.ID] = symVal{t: val}
	return nil
}

func (s *sym) storeWord(m *Memory, idx, v *expr.Term) error {
	if s.node != nil {
		return unsupported("memory %s written by combinational logic", m.Name)
	}
	k, ok := idx.Const()
	if !ok {
		return unsupported("index that is not constant")
	}
	if k < uint64(m.Depth) { // a write past the end is dropped
		s.env[s.c.memKey[m.ID]+int(k)] = symVal{t: s.resize(v, m.Width)}
	}
	return nil
}

func (s *sym) fork() any { return maps.Clone(s.env) }

func (s *sym) swap(before any) any {
	taken := s.env
	s.env = before.(map[int]symVal)
	return taken
}

// join merges every target either arm wrote: the first arm's value
// where c is non-zero, the current one elsewhere. A target unmodeled
// in either arm is unmodeled after the branch.
func (s *sym) join(c *expr.Term, then any) error {
	taken := then.(map[int]symVal)
	merge := func(key int) {
		t, e := s.get(taken, key), s.get(s.env, key)
		switch {
		case t.err != nil:
			s.env[key] = t
		case e.err != nil:
			s.env[key] = e
		default:
			s.env[key] = symVal{t: s.mux(c, t.t, e.t)}
		}
	}
	for key := range taken {
		merge(key)
	}
	for key := range s.env {
		if _, ok := taken[key]; !ok {
			merge(key)
		}
	}
	return nil
}

// fail marks every target of st unmodeled: the signals it assigns,
// and in a sequential block the memories (a comb node writing one is
// not modeled at all, see combWritten).
func (s *sym) fail(st verilog.Stmt, err error) error {
	for _, name := range verilog.Targets(st) {
		if sig, ok := s.scope.signals[name]; ok {
			s.env[sig.ID] = symVal{err: err}
		} else if m, ok := s.scope.memories[name]; ok && s.node == nil {
			for i := range int(m.Depth) {
				s.env[s.c.memKey[m.ID]+i] = symVal{err: err}
			}
		}
	}
	return nil
}
