package expr

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// builderShards is the number of independently locked intern-table
// shards. Sharding by term hash keeps concurrent workers from
// serializing on a single mutex while still guaranteeing that
// structurally equal terms intern to the same pointer.
const builderShards = 16

// Builder creates, deduplicates and simplifies terms. A Builder is
// safe for concurrent use: the intern table is lock-striped by term
// hash, so parallel exploration workers may share one Builder and rely
// on pointer equality for structural equality across workers (the
// property the shared solver cache is keyed on).
type Builder struct {
	shards [builderShards]internShard
	varMu  sync.Mutex
	vars   map[string]*Term
	// varSets memoizes, per interned term, the name-sorted set of
	// variables reachable from it (see VarSet).
	varSets sync.Map // map[*Term][]*Term
}

type internShard struct {
	mu    sync.Mutex
	table map[uint64][]*Term
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	b := &Builder{vars: make(map[string]*Term)}
	for i := range b.shards {
		b.shards[i].table = make(map[uint64][]*Term)
	}
	return b
}

// termKey is a term's interned identity, built on the caller's stack:
// no constructor has more than two operands. A probe that finds an
// existing term allocates nothing.
type termKey struct {
	op     Op
	width  uint8
	lo     uint8
	nargs  uint8
	val    uint64
	name   string
	a0, a1 *Term
}

func (k *termKey) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(k.op))
	mix(uint64(k.width))
	mix(k.val)
	mix(uint64(k.lo))
	for _, c := range k.name {
		mix(uint64(c))
	}
	if k.nargs > 0 {
		mix(k.a0.hash)
	}
	if k.nargs > 1 {
		mix(k.a1.hash)
	}
	return h
}

func (k *termKey) matches(t *Term) bool {
	if t.op != k.op || t.width != k.width || t.val != k.val ||
		t.name != k.name || t.lo != k.lo || len(t.args) != int(k.nargs) {
		return false
	}
	return (k.nargs < 1 || t.args[0] == k.a0) && (k.nargs < 2 || t.args[1] == k.a1)
}

// intern returns the term k names, allocating it only if the table
// does not hold it yet. A node whose operands are all constants comes
// out as the constant apply computes for it. This is the only constant
// fold: every constructor ends here and its rewrites preserve values,
// so a term built from constants is the constant of the same value.
func (b *Builder) intern(k termKey) *Term {
	if k.nargs > 0 && k.a0.op == OpConst && (k.nargs < 2 || k.a1.op == OpConst) {
		var y uint64
		if k.nargs > 1 {
			y = k.a1.val
		}
		return b.Const(apply(k.op, k.width, k.a0.width, k.lo, k.a0.val, y), uint(k.width))
	}
	h := k.hash()
	s := &b.shards[h%builderShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.table[h] {
		if k.matches(c) {
			return c
		}
	}
	t := &Term{op: k.op, width: k.width, lo: k.lo, val: k.val, name: k.name, hash: h, tree: 1}
	switch k.nargs {
	case 1:
		t.args = []*Term{k.a0}
	case 2:
		t.args = []*Term{k.a0, k.a1}
	}
	for _, a := range t.args {
		t.tree += min(a.tree, math.MaxUint32-t.tree)
	}
	s.table[h] = append(s.table[h], t)
	return t
}

func checkWidth(w uint) uint8 {
	if w == 0 || w > 64 {
		panic(fmt.Sprintf("expr: invalid width %d", w))
	}
	return uint8(w)
}

// Const returns the w-bit constant v (masked to width).
func (b *Builder) Const(v uint64, w uint) *Term {
	cw := checkWidth(w)
	return b.intern(termKey{op: OpConst, width: cw, val: v & Mask(w)})
}

// Bool returns the width-1 constant for v.
func (b *Builder) Bool(v bool) *Term {
	if v {
		return b.Const(1, 1)
	}
	return b.Const(0, 1)
}

// Var returns the variable with the given name and width. Requesting an
// existing name with a different width panics: variable identity is the
// name, so a width clash is a programming error.
func (b *Builder) Var(name string, w uint) *Term {
	cw := checkWidth(w)
	b.varMu.Lock()
	if v, ok := b.vars[name]; ok {
		b.varMu.Unlock()
		if v.width != cw {
			panic(fmt.Sprintf("expr: variable %q redeclared with width %d (was %d)", name, w, v.width))
		}
		return v
	}
	b.varMu.Unlock()
	// Interning dedups, so two racing declarations of the same
	// variable resolve to the same pointer before either publishes it.
	v := b.intern(termKey{op: OpVar, width: cw, name: name})
	b.varMu.Lock()
	b.vars[name] = v
	b.varMu.Unlock()
	return v
}

func sameWidth(x, y *Term) {
	if x.width != y.width {
		panic(fmt.Sprintf("expr: width mismatch %d vs %d", x.width, y.width))
	}
}

func (b *Builder) binary(op Op, x, y *Term, w uint8) *Term {
	return b.intern(termKey{op: op, width: w, nargs: 2, a0: x, a1: y})
}

// Add returns x + y (modular).
func (b *Builder) Add(x, y *Term) *Term {
	sameWidth(x, y)
	if x.IsConst() && x.val == 0 {
		return y
	}
	if y.IsConst() && y.val == 0 {
		return x
	}
	// Canonicalize constant to the right for dedup.
	if x.IsConst() {
		x, y = y, x
	}
	// Fold add chains: (x + c1) + c2 = x + (c1 + c2).
	if y.IsConst() && x.op == OpAdd && x.args[1].IsConst() {
		return b.Add(x.args[0], b.Const(x.args[1].val+y.val, x.Width()))
	}
	return b.binary(OpAdd, x, y, x.width)
}

// Sub returns x - y (modular).
func (b *Builder) Sub(x, y *Term) *Term {
	sameWidth(x, y)
	if y.IsConst() && y.val == 0 {
		return x
	}
	if x == y {
		return b.Const(0, x.Width())
	}
	// Canonicalize x - c to x + (-c) so constant-offset chains fold.
	// Two constants fold in intern without making -c.
	if y.IsConst() && !x.IsConst() {
		return b.Add(x, b.Const(-y.val, x.Width()))
	}
	return b.binary(OpSub, x, y, x.width)
}

// Mul returns x * y (modular).
func (b *Builder) Mul(x, y *Term) *Term {
	sameWidth(x, y)
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() {
		switch y.val {
		case 0:
			return y
		case 1:
			return x
		}
		// Strength-reduce multiplication by a power of two to a
		// shift; the blaster's shifter is far cheaper than its
		// shift-and-add multiplier. Two constants fold in intern.
		if y.val&(y.val-1) == 0 && !x.IsConst() {
			return b.Shl(x, b.Const(uint64(bits.TrailingZeros64(y.val)), x.Width()))
		}
	}
	return b.binary(OpMul, x, y, x.width)
}

// UDiv returns x / y (unsigned). Division by zero yields all-ones,
// following SMT-LIB semantics.
func (b *Builder) UDiv(x, y *Term) *Term {
	sameWidth(x, y)
	if y.IsConst() && y.val == 1 {
		return x
	}
	// Strength-reduce division by a power of two to a logical shift
	// (zero passes the bit test but is not one: x / 0 stays a UDiv).
	// Two constants fold in intern.
	if y.IsConst() && y.val != 0 && y.val&(y.val-1) == 0 && !x.IsConst() {
		return b.Lshr(x, b.Const(uint64(bits.TrailingZeros64(y.val)), x.Width()))
	}
	return b.binary(OpUDiv, x, y, x.width)
}

// URem returns x mod y (unsigned). x mod 0 = x, following SMT-LIB.
func (b *Builder) URem(x, y *Term) *Term {
	sameWidth(x, y)
	// Strength-reduce modulo by a power of two to a mask. Two
	// constants fold in intern.
	if y.IsConst() && y.val != 0 && y.val&(y.val-1) == 0 && !x.IsConst() {
		return b.And(x, b.Const(y.val-1, x.Width()))
	}
	return b.binary(OpURem, x, y, x.width)
}

// And returns x & y.
func (b *Builder) And(x, y *Term) *Term {
	sameWidth(x, y)
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() {
		if y.val == 0 {
			return y
		}
		if y.val == Mask(x.Width()) {
			return x
		}
		// Narrow through a zero extension when the mask fits the
		// original width: and(zext(x), c) = zext(and(x, c)). This is
		// the `andi` pattern on byte-loaded symbolic inputs and
		// shrinks every downstream blast from the extended width to
		// the source width.
		if x.op == OpZExt && y.val&^Mask(x.args[0].Width()) == 0 {
			return b.ZExt(b.And(x.args[0], b.Const(y.val, x.args[0].Width())), x.Width())
		}
	}
	if x == y {
		return x
	}
	return b.binary(OpAnd, x, y, x.width)
}

// Or returns x | y.
func (b *Builder) Or(x, y *Term) *Term {
	sameWidth(x, y)
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() {
		if y.val == 0 {
			return x
		}
		if y.val == Mask(x.Width()) {
			return y
		}
		if x.op == OpZExt && y.val&^Mask(x.args[0].Width()) == 0 {
			return b.ZExt(b.Or(x.args[0], b.Const(y.val, x.args[0].Width())), x.Width())
		}
	}
	if x == y {
		return x
	}
	return b.binary(OpOr, x, y, x.width)
}

// Xor returns x ^ y.
func (b *Builder) Xor(x, y *Term) *Term {
	sameWidth(x, y)
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() && y.val == 0 {
		return x
	}
	if y.IsConst() && x.op == OpZExt && y.val&^Mask(x.args[0].Width()) == 0 {
		return b.ZExt(b.Xor(x.args[0], b.Const(y.val, x.args[0].Width())), x.Width())
	}
	if x == y {
		return b.Const(0, x.Width())
	}
	return b.binary(OpXor, x, y, x.width)
}

// Not returns ^x (bitwise complement).
func (b *Builder) Not(x *Term) *Term {
	if x.op == OpNot {
		return x.args[0]
	}
	// Negated comparisons flip to the dual comparison so bound
	// constraints stay in a canonical form the solver's interval
	// tightening can read.
	if x.width == 1 {
		switch x.op {
		case OpUlt:
			return b.Ule(x.args[1], x.args[0])
		case OpUle:
			return b.Ult(x.args[1], x.args[0])
		case OpSlt:
			return b.Sle(x.args[1], x.args[0])
		case OpSle:
			return b.Slt(x.args[1], x.args[0])
		}
	}
	return b.intern(termKey{op: OpNot, width: x.width, nargs: 1, a0: x})
}

// Shl returns x << y. Shift amounts >= width yield zero.
func (b *Builder) Shl(x, y *Term) *Term {
	sameWidth(x, y)
	if y.IsConst() && y.val == 0 {
		return x
	}
	return b.binary(OpShl, x, y, x.width)
}

// Lshr returns x >> y (logical). Shift amounts >= width yield zero.
func (b *Builder) Lshr(x, y *Term) *Term {
	sameWidth(x, y)
	if y.IsConst() && y.val == 0 {
		return x
	}
	return b.binary(OpLshr, x, y, x.width)
}

// Ashr returns x >> y (arithmetic).
func (b *Builder) Ashr(x, y *Term) *Term {
	sameWidth(x, y)
	if y.IsConst() && y.val == 0 {
		return x
	}
	return b.binary(OpAshr, x, y, x.width)
}

// Eq returns the width-1 term (x = y).
func (b *Builder) Eq(x, y *Term) *Term {
	sameWidth(x, y)
	if x == y {
		return b.Bool(true)
	}
	if x.IsConst() {
		x, y = y, x
	}
	if y.IsConst() {
		// Boolean equality collapses to the operand or its negation.
		if x.width == 1 {
			if y.val == 1 {
				return x
			}
			return b.Not(x)
		}
		switch x.op {
		case OpAdd:
			// (x + c1) = c2  ⇔  x = c2 - c1
			if x.args[1].IsConst() {
				return b.Eq(x.args[0], b.Const(y.val-x.args[1].val, x.Width()))
			}
		case OpXor:
			// (x ^ c1) = c2  ⇔  x = c1 ^ c2
			if x.args[1].IsConst() {
				return b.Eq(x.args[0], b.Const(x.args[1].val^y.val, x.Width()))
			}
		case OpNot:
			return b.Eq(x.args[0], b.Const(^y.val, x.Width()))
		case OpZExt:
			// zext(x) = c is false when c overflows x, else narrows.
			if y.val&^Mask(x.args[0].Width()) != 0 {
				return b.Bool(false)
			}
			return b.Eq(x.args[0], b.Const(y.val, x.args[0].Width()))
		case OpConcat:
			// Split per part; each half usually touches fewer
			// variables, which feeds independence slicing.
			hi, lo := x.args[0], x.args[1]
			return b.And(
				b.Eq(hi, b.Const(y.val>>lo.Width(), hi.Width())),
				b.Eq(lo, b.Const(y.val, lo.Width())))
		}
	}
	return b.binary(OpEq, x, y, 1)
}

// Ne returns the width-1 term (x != y).
func (b *Builder) Ne(x, y *Term) *Term {
	return b.NotBool(b.Eq(x, y))
}

// Ult returns x < y (unsigned), width 1.
func (b *Builder) Ult(x, y *Term) *Term {
	sameWidth(x, y)
	if x == y {
		return b.Bool(false)
	}
	if y.IsConst() {
		if y.val == 0 {
			return b.Bool(false)
		}
		if y.val == 1 {
			return b.Eq(x, b.Const(0, x.Width()))
		}
		if x.op == OpZExt {
			iw := x.args[0].Width()
			if y.val > Mask(iw) {
				return b.Bool(true)
			}
			return b.Ult(x.args[0], b.Const(y.val, iw))
		}
	}
	if x.IsConst() {
		if x.val == Mask(x.Width()) {
			return b.Bool(false)
		}
		if y.op == OpZExt {
			iw := y.args[0].Width()
			if x.val >= Mask(iw) {
				return b.Bool(false)
			}
			return b.Ult(b.Const(x.val, iw), y.args[0])
		}
	}
	return b.binary(OpUlt, x, y, 1)
}

// Ule returns x <= y (unsigned), width 1.
func (b *Builder) Ule(x, y *Term) *Term {
	sameWidth(x, y)
	if x == y {
		return b.Bool(true)
	}
	if x.IsConst() {
		if x.val == 0 {
			return b.Bool(true)
		}
		if y.op == OpZExt {
			iw := y.args[0].Width()
			if x.val > Mask(iw) {
				return b.Bool(false)
			}
			return b.Ule(b.Const(x.val, iw), y.args[0])
		}
	}
	if y.IsConst() {
		if y.val == Mask(x.Width()) {
			return b.Bool(true)
		}
		if y.val == 0 {
			return b.Eq(x, b.Const(0, x.Width()))
		}
		if x.op == OpZExt {
			iw := x.args[0].Width()
			if y.val >= Mask(iw) {
				return b.Bool(true)
			}
			return b.Ule(x.args[0], b.Const(y.val, iw))
		}
	}
	return b.binary(OpUle, x, y, 1)
}

// Slt returns x < y (signed), width 1.
func (b *Builder) Slt(x, y *Term) *Term {
	sameWidth(x, y)
	if x == y {
		return b.Bool(false)
	}
	return b.binary(OpSlt, x, y, 1)
}

// Sle returns x <= y (signed), width 1.
func (b *Builder) Sle(x, y *Term) *Term {
	sameWidth(x, y)
	if x == y {
		return b.Bool(true)
	}
	return b.binary(OpSle, x, y, 1)
}

// NotBool returns the boolean negation of a width-1 term.
func (b *Builder) NotBool(x *Term) *Term {
	if x.Width() != 1 {
		panic("expr: NotBool on non-boolean term")
	}
	return b.Not(x)
}

// Concat returns hi ++ lo; hi occupies the most significant bits.
func (b *Builder) Concat(hi, lo *Term) *Term {
	w := hi.Width() + lo.Width()
	cw := checkWidth(w)
	return b.intern(termKey{op: OpConcat, width: cw, nargs: 2, a0: hi, a1: lo})
}

// Extract returns bits [lo+w-1 : lo] of x as a w-bit term.
func (b *Builder) Extract(x *Term, lo, w uint) *Term {
	cw := checkWidth(w)
	if lo+w > x.Width() {
		panic(fmt.Sprintf("expr: extract [%d+%d] out of range of width %d", lo, w, x.Width()))
	}
	if lo == 0 && w == x.Width() {
		return x
	}
	// extract of extract
	if x.op == OpExtract {
		return b.Extract(x.args[0], uint(x.lo)+lo, w)
	}
	// extract entirely within one side of a concat
	if x.op == OpConcat {
		loW := x.args[1].Width()
		if lo+w <= loW {
			return b.Extract(x.args[1], lo, w)
		}
		if lo >= loW {
			return b.Extract(x.args[0], lo-loW, w)
		}
	}
	// extract of zext that stays within the original term
	if x.op == OpZExt && lo+w <= x.args[0].Width() {
		return b.Extract(x.args[0], lo, w)
	}
	return b.intern(termKey{op: OpExtract, width: cw, lo: uint8(lo), nargs: 1, a0: x})
}

// ZExt zero-extends x to width w.
func (b *Builder) ZExt(x *Term, w uint) *Term {
	cw := checkWidth(w)
	if w < x.Width() {
		panic("expr: zext to smaller width")
	}
	if w == x.Width() {
		return x
	}
	if x.op == OpZExt {
		return b.ZExt(x.args[0], w)
	}
	return b.intern(termKey{op: OpZExt, width: cw, nargs: 1, a0: x})
}

// SExt sign-extends x to width w.
func (b *Builder) SExt(x *Term, w uint) *Term {
	cw := checkWidth(w)
	if w < x.Width() {
		panic("expr: sext to smaller width")
	}
	if w == x.Width() {
		return x
	}
	return b.intern(termKey{op: OpSExt, width: cw, nargs: 1, a0: x})
}

// VarSet returns the distinct variables reachable from t, sorted by
// name. The result is memoized per interned term; because terms are
// hash-consed, the amortized cost is O(1) per reused node, which is
// what makes per-query independence slicing in internal/solver
// affordable. The returned slice is shared across callers and must not
// be modified. Safe for concurrent use.
func (b *Builder) VarSet(t *Term) []*Term {
	if v, ok := b.varSets.Load(t); ok {
		return v.([]*Term)
	}
	var out []*Term
	switch t.op {
	case OpConst:
	case OpVar:
		out = []*Term{t}
	default:
		for _, a := range t.args {
			out = mergeVarSets(out, b.VarSet(a))
		}
	}
	b.varSets.Store(t, out)
	return out
}

// mergeVarSets unions two name-sorted variable sets. Variable names are
// unique per Builder, so name order is a strict total order and pointer
// equality coincides with name equality.
func mergeVarSets(a, c []*Term) []*Term {
	if len(a) == 0 {
		return c
	}
	if len(c) == 0 {
		return a
	}
	out := make([]*Term, 0, len(a)+len(c))
	i, j := 0, 0
	for i < len(a) && j < len(c) {
		switch {
		case a[i] == c[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i].name < c[j].name:
			out = append(out, a[i])
			i++
		default:
			out = append(out, c[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, c[j:]...)
	return out
}
