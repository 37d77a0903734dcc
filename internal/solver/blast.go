package solver

import (
	"fmt"

	"hardsnap/internal/expr"
)

// blaster lowers bitvector terms to CNF over a sat instance. Each term
// maps to a slice of literals, least-significant bit first. Constant
// bits are represented by litTrue/litFalse, so downstream gates can
// simplify on the fly.
type blaster struct {
	s     *sat
	cache map[*expr.Term][]lit
	vars  map[string][]lit // bitvector variable name -> bit literals
}

func newBlaster(s *sat) *blaster {
	return &blaster{
		s:     s,
		cache: make(map[*expr.Term][]lit),
		vars:  make(map[string][]lit),
	}
}

func (b *blaster) freshLit() lit { return mkLit(b.s.newVar(), false) }

func isConstLit(l lit) (bool, bool) {
	switch l {
	case litTrue:
		return true, true
	case litFalse:
		return false, true
	}
	return false, false
}

// gateAnd returns a literal equivalent to x AND y.
func (b *blaster) gateAnd(x, y lit) lit {
	if v, ok := isConstLit(x); ok {
		if v {
			return y
		}
		return litFalse
	}
	if v, ok := isConstLit(y); ok {
		if v {
			return x
		}
		return litFalse
	}
	if x == y {
		return x
	}
	if x == y.not() {
		return litFalse
	}
	o := b.freshLit()
	b.s.addClause([]lit{x.not(), y.not(), o})
	b.s.addClause([]lit{x, o.not()})
	b.s.addClause([]lit{y, o.not()})
	return o
}

// gateOr returns a literal equivalent to x OR y.
func (b *blaster) gateOr(x, y lit) lit {
	return b.gateAnd(x.not(), y.not()).not()
}

// gateXor returns a literal equivalent to x XOR y.
func (b *blaster) gateXor(x, y lit) lit {
	if v, ok := isConstLit(x); ok {
		if v {
			return y.not()
		}
		return y
	}
	if v, ok := isConstLit(y); ok {
		if v {
			return x.not()
		}
		return x
	}
	if x == y {
		return litFalse
	}
	if x == y.not() {
		return litTrue
	}
	o := b.freshLit()
	b.s.addClause([]lit{x.not(), y.not(), o.not()})
	b.s.addClause([]lit{x, y, o.not()})
	b.s.addClause([]lit{x.not(), y, o})
	b.s.addClause([]lit{x, y.not(), o})
	return o
}

// gateMux returns (sel ? x : y).
func (b *blaster) gateMux(sel, x, y lit) lit {
	if v, ok := isConstLit(sel); ok {
		if v {
			return x
		}
		return y
	}
	if x == y {
		return x
	}
	return b.gateOr(b.gateAnd(sel, x), b.gateAnd(sel.not(), y))
}

// fullAdder returns (sum, carryOut) of x + y + cin.
func (b *blaster) fullAdder(x, y, cin lit) (lit, lit) {
	sum := b.gateXor(b.gateXor(x, y), cin)
	carry := b.gateOr(b.gateAnd(x, y), b.gateAnd(cin, b.gateXor(x, y)))
	return sum, carry
}

func (b *blaster) adder(x, y []lit, cin lit) []lit {
	out := make([]lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out
}

func constBits(v uint64, w int) []lit {
	out := make([]lit, w)
	for i := 0; i < w; i++ {
		if v&(1<<uint(i)) != 0 {
			out[i] = litTrue
		} else {
			out[i] = litFalse
		}
	}
	return out
}

// eqBits returns a literal that is true iff x == y bitwise.
func (b *blaster) eqBits(x, y []lit) lit {
	acc := litTrue
	for i := range x {
		acc = b.gateAnd(acc, b.gateXor(x[i], y[i]).not())
	}
	return acc
}

// ultBits returns a literal that is true iff x < y unsigned.
func (b *blaster) ultBits(x, y []lit) lit {
	// Iterate from LSB: lt = (~x&y) | (eq & lt_prev)
	lt := litFalse
	for i := 0; i < len(x); i++ {
		xi, yi := x[i], y[i]
		eq := b.gateXor(xi, yi).not()
		lti := b.gateAnd(xi.not(), yi)
		lt = b.gateOr(lti, b.gateAnd(eq, lt))
	}
	return lt
}

// sltBits returns a literal that is true iff x < y signed.
func (b *blaster) sltBits(x, y []lit) lit {
	n := len(x)
	sx, sy := x[n-1], y[n-1]
	// Flip sign bits and compare unsigned.
	x2 := append(append([]lit{}, x[:n-1]...), sx.not())
	y2 := append(append([]lit{}, y[:n-1]...), sy.not())
	return b.ultBits(x2, y2)
}

func (b *blaster) mux(sel lit, x, y []lit) []lit {
	out := make([]lit, len(x))
	for i := range x {
		out[i] = b.gateMux(sel, x[i], y[i])
	}
	return out
}

// shifter implements a barrel shifter. dir: 0 = shl, 1 = lshr, 2 = ashr.
func (b *blaster) shifter(x, amount []lit, dir int) []lit {
	w := len(x)
	cur := append([]lit{}, x...)
	fill := litFalse
	if dir == 2 {
		fill = x[w-1]
	}
	// Stage for each bit of the shift amount that matters.
	for stage := 0; (1<<uint(stage)) < w && stage < len(amount); stage++ {
		sh := 1 << uint(stage)
		shifted := make([]lit, w)
		for i := 0; i < w; i++ {
			var src lit
			switch dir {
			case 0: // left
				if i-sh >= 0 {
					src = cur[i-sh]
				} else {
					src = litFalse
				}
			default: // right
				if i+sh < w {
					src = cur[i+sh]
				} else {
					src = fill
				}
			}
			shifted[i] = b.gateMux(amount[stage], src, cur[i])
		}
		cur = shifted
	}
	// If any higher amount bit is set, the result saturates.
	over := litFalse
	for i := 0; i < len(amount); i++ {
		if 1<<uint(i) >= w {
			over = b.gateOr(over, amount[i])
		}
	}
	if over != litFalse {
		sat := make([]lit, w)
		for i := range sat {
			sat[i] = fill
		}
		cur = b.mux(over, sat, cur)
	}
	return cur
}

func (b *blaster) multiplier(x, y []lit) []lit {
	w := len(x)
	acc := constBits(0, w)
	for i := 0; i < w; i++ {
		// partial = (y[i] ? x << i : 0), accumulated into acc.
		part := make([]lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				part[j] = litFalse
			} else {
				part[j] = b.gateAnd(x[j-i], y[i])
			}
		}
		acc = b.adder(acc, part, litFalse)
	}
	return acc
}

// divider constrains fresh quotient/remainder vectors so that
// x = q*y + r with r < y (for y != 0), and SMT-LIB semantics for y == 0
// (q = all ones, r = x). Computation happens in 2w bits to avoid
// wrap-around aliasing.
func (b *blaster) divider(x, y []lit) (q, r []lit) {
	w := len(x)
	q = make([]lit, w)
	r = make([]lit, w)
	for i := 0; i < w; i++ {
		q[i] = b.freshLit()
		r[i] = b.freshLit()
	}
	zero := constBits(0, w)
	yIsZero := b.eqBits(y, zero)

	// Extended widths.
	ext := func(v []lit) []lit {
		out := make([]lit, 2*w)
		copy(out, v)
		for i := w; i < 2*w; i++ {
			out[i] = litFalse
		}
		return out
	}
	prod := b.multiplier2w(ext(q), ext(y))
	sum := b.adder(prod, ext(r), litFalse)
	eq := b.eqBits(sum, ext(x))
	rLtY := b.ultBits(r, y)
	qOnes := b.eqBits(q, constBits(expr.Mask(uint(w)), w))
	rIsX := b.eqBits(r, x)

	// yIsZero -> (qOnes && rIsX) ; !yIsZero -> (eq && rLtY)
	okZero := b.gateAnd(qOnes, rIsX)
	okDiv := b.gateAnd(eq, rLtY)
	cond := b.gateMux(yIsZero, okZero, okDiv)
	b.s.addClause([]lit{cond})
	return q, r
}

// multiplier2w multiplies two 2w-bit vectors but only needs the low 2w
// bits; inputs are zero-extended w-bit values so the product is exact.
func (b *blaster) multiplier2w(x, y []lit) []lit {
	return b.multiplier(x, y)
}

// blast returns the literal vector for term t.
func (b *blaster) blast(t *expr.Term) []lit {
	if r, ok := b.cache[t]; ok {
		return r
	}
	r := b.blastUncached(t)
	if len(r) != int(t.Width()) {
		panic(fmt.Sprintf("solver: blast width mismatch for %v: got %d want %d", t, len(r), t.Width()))
	}
	b.cache[t] = r
	return r
}

func (b *blaster) blastUncached(t *expr.Term) []lit {
	w := int(t.Width())
	args := t.Args()
	switch t.Op() {
	case expr.OpConst:
		v, _ := t.Const()
		return constBits(v, w)
	case expr.OpVar:
		if bits, ok := b.vars[t.Name()]; ok {
			return bits
		}
		bits := make([]lit, w)
		for i := range bits {
			bits[i] = b.freshLit()
		}
		b.vars[t.Name()] = bits
		return bits
	case expr.OpAdd:
		return b.adder(b.blast(args[0]), b.blast(args[1]), litFalse)
	case expr.OpSub:
		y := b.blast(args[1])
		inv := make([]lit, len(y))
		for i, l := range y {
			inv[i] = l.not()
		}
		return b.adder(b.blast(args[0]), inv, litTrue)
	case expr.OpMul:
		return b.multiplier(b.blast(args[0]), b.blast(args[1]))
	case expr.OpUDiv:
		q, _ := b.divider(b.blast(args[0]), b.blast(args[1]))
		return q
	case expr.OpURem:
		_, r := b.divider(b.blast(args[0]), b.blast(args[1]))
		return r
	case expr.OpAnd:
		x, y := b.blast(args[0]), b.blast(args[1])
		out := make([]lit, w)
		for i := range out {
			out[i] = b.gateAnd(x[i], y[i])
		}
		return out
	case expr.OpOr:
		x, y := b.blast(args[0]), b.blast(args[1])
		out := make([]lit, w)
		for i := range out {
			out[i] = b.gateOr(x[i], y[i])
		}
		return out
	case expr.OpXor:
		x, y := b.blast(args[0]), b.blast(args[1])
		out := make([]lit, w)
		for i := range out {
			out[i] = b.gateXor(x[i], y[i])
		}
		return out
	case expr.OpNot:
		x := b.blast(args[0])
		out := make([]lit, w)
		for i := range out {
			out[i] = x[i].not()
		}
		return out
	case expr.OpShl:
		return b.shifter(b.blast(args[0]), b.blast(args[1]), 0)
	case expr.OpLshr:
		return b.shifter(b.blast(args[0]), b.blast(args[1]), 1)
	case expr.OpAshr:
		return b.shifter(b.blast(args[0]), b.blast(args[1]), 2)
	case expr.OpEq:
		return []lit{b.eqBits(b.blast(args[0]), b.blast(args[1]))}
	case expr.OpUlt:
		return []lit{b.ultBits(b.blast(args[0]), b.blast(args[1]))}
	case expr.OpUle:
		return []lit{b.ultBits(b.blast(args[1]), b.blast(args[0])).not()}
	case expr.OpSlt:
		return []lit{b.sltBits(b.blast(args[0]), b.blast(args[1]))}
	case expr.OpSle:
		return []lit{b.sltBits(b.blast(args[1]), b.blast(args[0])).not()}
	case expr.OpConcat:
		hi, lo := b.blast(args[0]), b.blast(args[1])
		out := make([]lit, 0, w)
		out = append(out, lo...)
		out = append(out, hi...)
		return out
	case expr.OpExtract:
		x := b.blast(args[0])
		loBit := int(t.ExtractLow())
		out := make([]lit, w)
		copy(out, x[loBit:loBit+w])
		return out
	case expr.OpZExt:
		x := b.blast(args[0])
		out := make([]lit, w)
		copy(out, x)
		for i := len(x); i < w; i++ {
			out[i] = litFalse
		}
		return out
	case expr.OpSExt:
		x := b.blast(args[0])
		out := make([]lit, w)
		copy(out, x)
		sign := x[len(x)-1]
		for i := len(x); i < w; i++ {
			out[i] = sign
		}
		return out
	}
	panic(fmt.Sprintf("solver: cannot blast op %v", t.Op()))
}

// model extracts concrete values for all blasted variables from a
// satisfying assignment.
func (b *blaster) model() expr.Assignment {
	m := make(expr.Assignment, len(b.vars))
	for name, bits := range b.vars {
		var v uint64
		for i, l := range bits {
			if b.s.value(l) == lTrue {
				v |= 1 << uint(i)
			}
		}
		m[name] = v
	}
	return m
}
