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
	w := t.Width()
	var v uint64
	switch t.op {
	case OpAdd:
		v = (x + y) & Mask(w)
	case OpSub:
		v = (x - y) & Mask(w)
	case OpMul:
		v = (x * y) & Mask(w)
	case OpUDiv:
		v = Mask(w)
		if y != 0 {
			v = x / y
		}
	case OpURem:
		v = x
		if y != 0 {
			v = x % y
		}
	case OpAnd:
		v = x & y
	case OpOr:
		v = x | y
	case OpXor:
		v = x ^ y
	case OpNot:
		v = ^x & Mask(w)
	case OpShl:
		if y < uint64(w) {
			v = (x << y) & Mask(w)
		}
	case OpLshr:
		if y < uint64(w) {
			v = x >> y
		}
	case OpAshr:
		xw := t.args[0].Width()
		v = uint64(int64(SignExtend(x, xw))>>min(y, uint64(xw)-1)) & Mask(w)
	case OpEq:
		v = b2u(x == y)
	case OpNe:
		v = b2u(x != y)
	case OpUlt:
		v = b2u(x < y)
	case OpUle:
		v = b2u(x <= y)
	case OpSlt:
		v = b2u(int64(SignExtend(x, t.args[0].Width())) < int64(SignExtend(y, t.args[1].Width())))
	case OpSle:
		v = b2u(int64(SignExtend(x, t.args[0].Width())) <= int64(SignExtend(y, t.args[1].Width())))
	case OpConcat:
		v = (x<<t.args[1].Width() | y) & Mask(w)
	case OpExtract:
		v = (x >> t.lo) & Mask(w)
	case OpZExt:
		v = x
	case OpSExt:
		v = SignExtend(x, t.args[0].Width()) & Mask(w)
	default:
		panic(fmt.Sprintf("expr: eval of unknown op %v", t.op))
	}
	if shared {
		if ev.memo == nil {
			ev.memo = make(map[*Term]uint64)
		}
		ev.memo[t] = v
		ev.touched = append(ev.touched, t)
	}
	return v
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
