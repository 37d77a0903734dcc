// Package expr implements a hash-consed bitvector expression DAG used by
// the symbolic execution engine. Terms are immutable; a Builder
// deduplicates structurally identical terms and applies local
// simplification and constant folding at construction time.
//
// Widths range from 1 to 64 bits. Width-1 terms double as booleans
// (0 = false, 1 = true), matching the QF_BV convention.
package expr

import (
	"fmt"
	"strings"
)

// Op identifies the operator of a Term.
type Op uint8

// Operators. Comparison operators always produce width-1 terms.
const (
	OpConst Op = iota + 1
	OpVar
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpNot
	_ // retired; later values keep their numbers (cache keys hash them)
	OpShl
	OpLshr
	OpAshr
	OpEq
	_ // retired, as above
	OpUlt
	OpUle
	OpSlt
	OpSle
	OpConcat
	OpExtract
	OpZExt
	OpSExt
)

var opNames = map[Op]string{
	OpConst:   "const",
	OpVar:     "var",
	OpAdd:     "bvadd",
	OpSub:     "bvsub",
	OpMul:     "bvmul",
	OpUDiv:    "bvudiv",
	OpURem:    "bvurem",
	OpAnd:     "bvand",
	OpOr:      "bvor",
	OpXor:     "bvxor",
	OpNot:     "bvnot",
	OpShl:     "bvshl",
	OpLshr:    "bvlshr",
	OpAshr:    "bvashr",
	OpEq:      "=",
	OpUlt:     "bvult",
	OpUle:     "bvule",
	OpSlt:     "bvslt",
	OpSle:     "bvsle",
	OpConcat:  "concat",
	OpExtract: "extract",
	OpZExt:    "zext",
	OpSExt:    "sext",
}

// String returns the SMT-LIB-style mnemonic for the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Term is an immutable bitvector expression node. Terms must be created
// through a Builder; two terms from the same Builder are structurally
// equal if and only if they are pointer-equal.
type Term struct {
	op    Op
	width uint8
	tree  uint32 // node count of the tree unfolding, saturating (see Evaluator)
	val   uint64 // constant value (OpConst) — always masked to width
	name  string // variable name (OpVar)
	lo    uint8  // extract low bit (OpExtract)
	args  []*Term
	hash  uint64
}

// Op returns the term's operator.
func (t *Term) Op() Op { return t.op }

// Width returns the bit width of the term's value.
func (t *Term) Width() uint { return uint(t.width) }

// IsConst reports whether t is a constant.
func (t *Term) IsConst() bool { return t.op == OpConst }

// Const returns the constant value and whether t is a constant.
func (t *Term) Const() (uint64, bool) {
	if t.op == OpConst {
		return t.val, true
	}
	return 0, false
}

// Name returns the variable name; it is empty unless t is a variable.
func (t *Term) Name() string { return t.name }

// Args returns the term's operands. The returned slice must not be
// modified.
func (t *Term) Args() []*Term { return t.args }

// ExtractLow returns the low bit index of an OpExtract term.
func (t *Term) ExtractLow() uint { return uint(t.lo) }

// String renders the term in an SMT-LIB-like prefix notation.
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Term) write(b *strings.Builder) {
	switch t.op {
	case OpConst:
		fmt.Fprintf(b, "#x%0*x", (t.width+3)/4, t.val)
	case OpVar:
		b.WriteString(t.name)
	case OpExtract:
		fmt.Fprintf(b, "((_ extract %d %d) ", uint(t.lo)+uint(t.width)-1, t.lo)
		t.args[0].write(b)
		b.WriteByte(')')
	case OpZExt, OpSExt:
		fmt.Fprintf(b, "((_ %s %d) ", t.op, uint(t.width)-t.args[0].Width())
		t.args[0].write(b)
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(t.op.String())
		for _, a := range t.args {
			b.WriteByte(' ')
			a.write(b)
		}
		b.WriteByte(')')
	}
}

// Mask returns a bitmask with the w low bits set.
func Mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// SignExtend extends the w-bit value v to 64 bits.
func SignExtend(v uint64, w uint) uint64 {
	if w == 0 || w >= 64 {
		return v
	}
	if v&(uint64(1)<<(w-1)) != 0 {
		return v | ^Mask(w)
	}
	return v & Mask(w)
}
