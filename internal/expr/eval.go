package expr

import "fmt"

// Assignment maps variable names to concrete values (masked to the
// variable's width by the evaluator).
type Assignment map[string]uint64

// Eval evaluates t under the given assignment. Unassigned variables
// evaluate to zero, which matches the solver's completion of partial
// models. Shared subterms of a large term are evaluated once, so the
// cost is linear in the size of the term DAG; callers on a hot path
// keep an Evaluator instead, which reuses its memo across calls.
func Eval(t *Term, a Assignment) uint64 {
	var ev Evaluator
	return ev.Eval(t, a)
}

// Evaluator evaluates terms like Eval. Subterms whose tree unfolding
// has more than memoTree nodes are memoized within one call, so shared
// subterms of a large DAG are evaluated once; smaller ones are cheaper
// to recompute than to look up. The memo storage is kept between calls,
// so a long-lived Evaluator does not allocate in the steady state. The
// zero value is ready to use; an Evaluator is not safe for concurrent
// use.
type Evaluator struct {
	memo    map[*Term]uint64
	touched []*Term
}

// memoTree bounds the recomputation an unmemoized subterm can cost.
const memoTree = 64

// Eval evaluates t under a (see the package-level Eval).
func (ev *Evaluator) Eval(t *Term, a Assignment) uint64 {
	v := ev.eval(t, a)
	// Forget only what this call stored: clearing the whole map would
	// cost its peak capacity on every later call.
	for _, k := range ev.touched {
		delete(ev.memo, k)
	}
	ev.touched = ev.touched[:0]
	return v
}

func (ev *Evaluator) eval(t *Term, a Assignment) uint64 {
	switch t.op {
	case OpConst:
		return t.val
	case OpVar:
		return a[t.name] & Mask(t.Width())
	}
	shared := t.tree > memoTree
	if shared {
		if v, ok := ev.memo[t]; ok {
			return v
		}
	}
	x := ev.eval(t.args[0], a)
	var y uint64
	if len(t.args) > 1 {
		y = ev.eval(t.args[1], a)
	}
	v := apply(t.op, t.width, t.args[0].width, t.lo, x, y)
	if shared {
		if ev.memo == nil {
			ev.memo = make(map[*Term]uint64)
		}
		ev.memo[t] = v
		ev.touched = append(ev.touched, t)
	}
	return v
}

// apply is the one definition of what each operator computes: the
// value of a node of op and width w whose first operand has width xw
// (the second's, for OpConcat, is w-xw) and value x, whose second
// operand, if any, has value y, and whose extract offset is lo.
// Operand values are masked to their widths. Eval calls it for every
// node, and the Builder folds a node whose operands are all constants
// through it, so a constant term and an evaluated one cannot disagree.
func apply(op Op, w, xw, lo uint8, x, y uint64) uint64 {
	m := Mask(uint(w))
	switch op {
	case OpAdd:
		return (x + y) & m
	case OpSub:
		return (x - y) & m
	case OpMul:
		return (x * y) & m
	case OpUDiv:
		if y == 0 {
			return m
		}
		return x / y
	case OpURem:
		if y == 0 {
			return x
		}
		return x % y
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpNot:
		return ^x & m
	case OpShl:
		if y >= uint64(w) {
			return 0
		}
		return (x << y) & m
	case OpLshr:
		if y >= uint64(w) {
			return 0
		}
		return x >> y
	case OpAshr:
		return uint64(int64(SignExtend(x, uint(xw)))>>min(y, uint64(xw)-1)) & m
	case OpEq:
		return b2u(x == y)
	case OpUlt:
		return b2u(x < y)
	case OpUle:
		return b2u(x <= y)
	case OpSlt:
		return b2u(int64(SignExtend(x, uint(xw))) < int64(SignExtend(y, uint(xw))))
	case OpSle:
		return b2u(int64(SignExtend(x, uint(xw))) <= int64(SignExtend(y, uint(xw))))
	case OpConcat:
		return (x<<(w-xw) | y) & m
	case OpExtract:
		return (x >> lo) & m
	case OpZExt:
		return x
	case OpSExt:
		return SignExtend(x, uint(xw)) & m
	}
	panic(fmt.Sprintf("expr: no value for op %v", op))
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
