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
	// Operands are evaluated eagerly, ite's untaken arm included: terms
	// are pure, and one call per node is what keeps small terms cheap.
	var x, y, z uint64
	x = ev.eval(t.args[0], a)
	if len(t.args) > 1 {
		y = ev.eval(t.args[1], a)
	}
	if len(t.args) > 2 {
		z = ev.eval(t.args[2], a)
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
	case OpNeg:
		v = (-x) & Mask(w)
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
	case OpIte:
		v = z
		if x != 0 {
			v = y
		}
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

// Replace returns t with every occurrence of the subterm old replaced
// by repl, rebuilding through b so the result re-simplifies. The
// solver's constraint-implied concretization uses it (an equality
// `old = c` in the path condition licenses replacing old by c
// everywhere else).
func Replace(b *Builder, t, old, repl *Term) *Term {
	if old.Width() != repl.Width() {
		panic("expr: replacement width mismatch")
	}
	cache := make(map[*Term]*Term)
	var rec func(*Term) *Term
	rec = func(t *Term) *Term {
		if t == old {
			return repl
		}
		if t.op == OpConst || t.op == OpVar {
			return t
		}
		if r, ok := cache[t]; ok {
			return r
		}
		args := make([]*Term, len(t.args))
		changed := false
		for i, a := range t.args {
			args[i] = rec(a)
			if args[i] != a {
				changed = true
			}
		}
		r := t
		if changed {
			r = b.rebuild(t, args)
		}
		cache[t] = r
		return r
	}
	return rec(t)
}

func (b *Builder) rebuild(t *Term, args []*Term) *Term {
	switch t.op {
	case OpAdd:
		return b.Add(args[0], args[1])
	case OpSub:
		return b.Sub(args[0], args[1])
	case OpMul:
		return b.Mul(args[0], args[1])
	case OpUDiv:
		return b.UDiv(args[0], args[1])
	case OpURem:
		return b.URem(args[0], args[1])
	case OpAnd:
		return b.And(args[0], args[1])
	case OpOr:
		return b.Or(args[0], args[1])
	case OpXor:
		return b.Xor(args[0], args[1])
	case OpNot:
		return b.Not(args[0])
	case OpNeg:
		return b.Neg(args[0])
	case OpShl:
		return b.Shl(args[0], args[1])
	case OpLshr:
		return b.Lshr(args[0], args[1])
	case OpAshr:
		return b.Ashr(args[0], args[1])
	case OpEq:
		return b.Eq(args[0], args[1])
	case OpNe:
		return b.Ne(args[0], args[1])
	case OpUlt:
		return b.Ult(args[0], args[1])
	case OpUle:
		return b.Ule(args[0], args[1])
	case OpSlt:
		return b.Slt(args[0], args[1])
	case OpSle:
		return b.Sle(args[0], args[1])
	case OpConcat:
		return b.Concat(args[0], args[1])
	case OpExtract:
		return b.Extract(args[0], uint(t.lo), t.Width())
	case OpZExt:
		return b.ZExt(args[0], t.Width())
	case OpSExt:
		return b.SExt(args[0], t.Width())
	case OpIte:
		return b.Ite(args[0], args[1], args[2])
	}
	panic(fmt.Sprintf("expr: rebuild of unknown op %v", t.op))
}
