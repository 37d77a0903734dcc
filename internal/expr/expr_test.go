package expr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hardsnap/internal/testseed"
)

func TestConstFolding(t *testing.T) {
	b := NewBuilder()
	tests := []struct {
		name string
		got  *Term
		want uint64
	}{
		{"add", b.Add(b.Const(3, 8), b.Const(4, 8)), 7},
		{"add-wrap", b.Add(b.Const(0xFF, 8), b.Const(1, 8)), 0},
		{"sub", b.Sub(b.Const(3, 8), b.Const(4, 8)), 0xFF},
		{"mul", b.Mul(b.Const(16, 8), b.Const(17, 8)), 0x10},
		{"udiv", b.UDiv(b.Const(100, 8), b.Const(7, 8)), 14},
		{"udiv0", b.UDiv(b.Const(100, 8), b.Const(0, 8)), 0xFF},
		{"urem", b.URem(b.Const(100, 8), b.Const(7, 8)), 2},
		{"urem0", b.URem(b.Const(100, 8), b.Const(0, 8)), 100},
		{"and", b.And(b.Const(0xF0, 8), b.Const(0x3C, 8)), 0x30},
		{"or", b.Or(b.Const(0xF0, 8), b.Const(0x0C, 8)), 0xFC},
		{"xor", b.Xor(b.Const(0xF0, 8), b.Const(0xFF, 8)), 0x0F},
		{"not", b.Not(b.Const(0xF0, 8)), 0x0F},
		{"shl", b.Shl(b.Const(1, 8), b.Const(3, 8)), 8},
		{"shl-over", b.Shl(b.Const(1, 8), b.Const(9, 8)), 0},
		{"lshr", b.Lshr(b.Const(0x80, 8), b.Const(3, 8)), 0x10},
		{"ashr", b.Ashr(b.Const(0x80, 8), b.Const(3, 8)), 0xF0},
		{"eq-t", b.Eq(b.Const(5, 8), b.Const(5, 8)), 1},
		{"eq-f", b.Eq(b.Const(5, 8), b.Const(6, 8)), 0},
		{"ult", b.Ult(b.Const(5, 8), b.Const(6, 8)), 1},
		{"slt", b.Slt(b.Const(0xFF, 8), b.Const(0, 8)), 1},
		{"sle", b.Sle(b.Const(0x7F, 8), b.Const(0, 8)), 0},
		{"concat", b.Concat(b.Const(0xAB, 8), b.Const(0xCD, 8)), 0xABCD},
		{"extract", b.Extract(b.Const(0xABCD, 16), 4, 8), 0xBC},
		{"zext", b.ZExt(b.Const(0xFF, 8), 16), 0xFF},
		{"sext", b.SExt(b.Const(0xFF, 8), 16), 0xFFFF},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			v, ok := tc.got.Const()
			if !ok {
				t.Fatalf("expected constant, got %v", tc.got)
			}
			if v != tc.want {
				t.Fatalf("got %#x, want %#x", v, tc.want)
			}
		})
	}
}

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	a1 := b.Add(x, y)
	a2 := b.Add(x, y)
	if a1 != a2 {
		t.Fatal("identical terms not deduplicated")
	}
	if b.Var("x", 32) != x {
		t.Fatal("variable not deduplicated")
	}
}

// TestReinternAllocatesNothing pins the intern probe: rebuilding a term
// the Builder already holds allocates nothing, for every constructor
// shape (no operand, one, two, and a variable name).
func TestReinternAllocatesNothing(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	y := b.Var("y", 32)
	b.Const(0xdead, 32)
	b.Add(x, y)
	b.Concat(b.Extract(x, 0, 8), b.Extract(y, 8, 8))
	cases := []struct {
		name string
		f    func()
	}{
		{"Const", func() { b.Const(0xdead, 32) }},
		{"Var", func() { b.Var("x", 32) }},
		{"Add", func() { b.Add(x, y) }},
		{"Concat", func() { b.Concat(b.Extract(x, 0, 8), b.Extract(y, 8, 8)) }},
		{"Extract", func() { b.Extract(x, 0, 8) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("re-interning an existing %s: %v allocations, want 0", c.name, n)
		}
	}
}

// TestInternHashUnchanged checks every interned term's hash against
// the FNV mix over the term's fields (op, width, value, extract low
// bit, name runes, operand hashes), so the probe key hashes exactly as
// the term it names.
func TestInternHashUnchanged(t *testing.T) {
	var ref func(t *Term) uint64
	ref = func(t *Term) uint64 {
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			h ^= v
			h *= 1099511628211
		}
		mix(uint64(t.op))
		mix(uint64(t.width))
		mix(t.val)
		mix(uint64(t.lo))
		for _, c := range t.name {
			mix(uint64(c))
		}
		for _, a := range t.args {
			mix(ref(a))
		}
		return h
	}
	b := NewBuilder()
	x := b.Var("x", 16)
	y := b.Var("ÿ_y", 16)
	terms := []*Term{
		x, y, b.Const(0x1234, 16), b.Add(x, y), b.Not(x), b.Concat(x, y),
		b.Extract(x, 3, 5), b.ZExt(y, 32), b.SExt(x, 24), b.Ult(x, y),
	}
	for _, tm := range terms {
		if got, want := tm.hash, ref(tm); got != want {
			t.Errorf("%v: hash %#x, want %#x", tm, got, want)
		}
	}
}

func TestVarWidthClashPanics(t *testing.T) {
	b := NewBuilder()
	b.Var("x", 32)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width clash")
		}
	}()
	b.Var("x", 16)
}

func TestSimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 16)
	zero := b.Const(0, 16)
	ones := b.Const(0xFFFF, 16)

	if b.Add(x, zero) != x {
		t.Error("x+0 != x")
	}
	if b.Sub(x, x) != zero {
		t.Error("x-x != 0")
	}
	if b.And(x, zero) != zero {
		t.Error("x&0 != 0")
	}
	if b.And(x, ones) != x {
		t.Error("x&~0 != x")
	}
	if b.Or(x, zero) != x {
		t.Error("x|0 != x")
	}
	if b.Xor(x, x) != zero {
		t.Error("x^x != 0")
	}
	if b.Not(b.Not(x)) != x {
		t.Error("~~x != x")
	}
	if v, _ := b.Eq(x, x).Const(); v != 1 {
		t.Error("x=x not folded to true")
	}
	if b.Extract(x, 0, 16) != x {
		t.Error("full-width extract not identity")
	}
}

func TestExtractOfConcat(t *testing.T) {
	b := NewBuilder()
	hi := b.Var("hi", 8)
	lo := b.Var("lo", 8)
	c := b.Concat(hi, lo)
	if b.Extract(c, 0, 8) != lo {
		t.Error("extract low of concat should be lo")
	}
	if b.Extract(c, 8, 8) != hi {
		t.Error("extract high of concat should be hi")
	}
}

func TestNestedExtract(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 32)
	e1 := b.Extract(x, 8, 16)
	e2 := b.Extract(e1, 4, 8)
	want := b.Extract(x, 12, 8)
	if e2 != want {
		t.Fatalf("nested extract not flattened: %v vs %v", e2, want)
	}
}

// TestEvalMatchesSimplify checks, via testing/quick, that building an
// expression tree from random ops and evaluating it gives the same
// result as evaluating an unsimplified reference computation.
func TestEvalMatchesSimplify(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)

	f := func(xv, yv uint8, opSel uint8) bool {
		a := Assignment{"x": uint64(xv), "y": uint64(yv)}
		var term *Term
		var want uint64
		switch opSel % 10 {
		case 0:
			term, want = b.Add(x, y), uint64(xv+yv)
		case 1:
			term, want = b.Sub(x, y), uint64(xv-yv)
		case 2:
			term, want = b.Mul(x, y), uint64(xv*yv)
		case 3:
			term, want = b.And(x, y), uint64(xv&yv)
		case 4:
			term, want = b.Or(x, y), uint64(xv|yv)
		case 5:
			term, want = b.Xor(x, y), uint64(xv^yv)
		case 6:
			term, want = b.Eq(x, y), b2u(xv == yv)
		case 7:
			term, want = b.Ult(x, y), b2u(xv < yv)
		case 8:
			term, want = b.Slt(x, y), b2u(int8(xv) < int8(yv))
		default:
			sh := yv % 8
			term, want = b.Shl(x, b.Const(uint64(sh), 8)), uint64(xv<<sh)
		}
		return Eval(term, a) == want
	}
	if err := quick.Check(f, testseed.Quick(t, 2000)); err != nil {
		t.Fatal(err)
	}
}

// TestEvalSharedSubterms: 64 rounds of h = h*31 + (h>>3) reuse h twice
// per round, so the term is a DAG of ~200 nodes whose tree unfolding
// has 2^64 leaves. Eval must visit each node once; an evaluator that
// walks the DAG as a tree never returns.
func TestEvalSharedSubterms(t *testing.T) {
	b := NewBuilder()
	h := b.Var("x", 32)
	for i := 0; i < 64; i++ {
		h = b.Add(b.Mul(h, b.Const(31, 32)), b.Lshr(h, b.Const(3, 32)))
	}
	var ev Evaluator
	for _, x := range []uint32{0, 1, 0xDEADBEEF, 0xFFFFFFFF} {
		want := x
		for i := 0; i < 64; i++ {
			want = want*31 + want>>3
		}
		a := Assignment{"x": uint64(x)}
		if got := Eval(h, a); got != uint64(want) {
			t.Fatalf("Eval(x=%#x) = %#x, want %#x", x, got, want)
		}
		// A reused Evaluator must not serve the previous assignment's
		// memo.
		if got := ev.Eval(h, a); got != uint64(want) {
			t.Fatalf("Evaluator.Eval(x=%#x) = %#x, want %#x", x, got, want)
		}
	}
}

func TestSignExtendHelper(t *testing.T) {
	if SignExtend(0x80, 8) != 0xFFFFFFFFFFFFFF80 {
		t.Error("sign extend negative failed")
	}
	if SignExtend(0x7F, 8) != 0x7F {
		t.Error("sign extend positive failed")
	}
}

func TestStringRendering(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	s := b.Add(x, b.Const(1, 8)).String()
	if s != "(bvadd x #x01)" {
		t.Fatalf("unexpected rendering %q", s)
	}
}

// TestRandomDAGEval builds deep random expressions and cross-checks
// evaluation against a shadow interpreter over the same random choices.
func TestRandomDAGEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder()
	x := b.Var("x", 16)
	y := b.Var("y", 16)

	type pair struct {
		t *Term
		f func(xv, yv uint64) uint64
	}
	mask := Mask(16)
	leaves := []pair{
		{x, func(xv, _ uint64) uint64 { return xv }},
		{y, func(_, yv uint64) uint64 { return yv }},
		{b.Const(0x1234, 16), func(_, _ uint64) uint64 { return 0x1234 }},
	}
	pool := append([]pair{}, leaves...)
	for i := 0; i < 200; i++ {
		a := pool[rng.Intn(len(pool))]
		c := pool[rng.Intn(len(pool))]
		switch rng.Intn(5) {
		case 0:
			af, cf := a.f, c.f
			pool = append(pool, pair{b.Add(a.t, c.t), func(xv, yv uint64) uint64 { return (af(xv, yv) + cf(xv, yv)) & mask }})
		case 1:
			af, cf := a.f, c.f
			pool = append(pool, pair{b.Xor(a.t, c.t), func(xv, yv uint64) uint64 { return af(xv, yv) ^ cf(xv, yv) }})
		case 2:
			af, cf := a.f, c.f
			pool = append(pool, pair{b.And(a.t, c.t), func(xv, yv uint64) uint64 { return af(xv, yv) & cf(xv, yv) }})
		case 3:
			af, cf := a.f, c.f
			pool = append(pool, pair{b.Mul(a.t, c.t), func(xv, yv uint64) uint64 { return (af(xv, yv) * cf(xv, yv)) & mask }})
		default:
			af := a.f
			pool = append(pool, pair{b.Not(a.t), func(xv, yv uint64) uint64 { return ^af(xv, yv) & mask }})
		}
	}
	for trial := 0; trial < 50; trial++ {
		xv := uint64(rng.Intn(1 << 16))
		yv := uint64(rng.Intn(1 << 16))
		a := Assignment{"x": xv, "y": yv}
		for _, p := range pool {
			if got, want := Eval(p.t, a), p.f(xv, yv); got != want {
				t.Fatalf("eval mismatch on %v: got %#x want %#x (x=%#x y=%#x)", p.t, got, want, xv, yv)
			}
		}
	}
}

// TestSimplifierSoundness builds random composite expressions through
// the simplifying Builder and cross-checks Eval against a direct
// semantic computation (simplification must never change meaning).
func TestSimplifierSoundness(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 16)
	y := b.Var("y", 16)
	c := b.Var("c", 1)

	f := func(xv, yv uint16, cv, sel uint8) bool {
		a := Assignment{"x": uint64(xv), "y": uint64(yv), "c": uint64(cv & 1)}
		mask16 := uint64(0xFFFF)
		var term *Term
		var want uint64
		switch sel % 8 {
		case 0:
			// extract of concat spanning the boundary
			term = b.Extract(b.Concat(x, y), 8, 16)
			want = (uint64(yv)>>8 | uint64(xv)<<8) & mask16
		case 1:
			// select between computed branches through a sign-extended
			// condition mask
			m := b.SExt(c, 16)
			term = b.Or(b.And(b.Add(x, y), m), b.And(b.Sub(x, y), b.Not(m)))
			if cv&1 != 0 {
				want = (uint64(xv) + uint64(yv)) & mask16
			} else {
				want = (uint64(xv) - uint64(yv)) & mask16
			}
		case 2:
			// zext/extract round trip
			term = b.Extract(b.ZExt(x, 32), 0, 16)
			want = uint64(xv)
		case 3:
			// sext then extract of high bits
			term = b.Extract(b.SExt(x, 32), 16, 16)
			want = SignExtend(uint64(xv), 16) >> 16 & mask16
		case 4:
			// double negation and demorgan-ish mix
			term = b.Not(b.And(b.Not(x), b.Not(y)))
			want = (uint64(xv) | uint64(yv)) & mask16
		case 5:
			// shift by constant then back
			term = b.Lshr(b.Shl(x, b.Const(4, 16)), b.Const(4, 16))
			want = (uint64(xv) << 4 & mask16) >> 4
		case 6:
			// compare chain folded to bool then widened
			term = b.ZExt(b.Ult(x, y), 16)
			if xv < yv {
				want = 1
			}
		default:
			// x - (x ^ 0) must equal 0 via simplifications
			term = b.Sub(x, b.Xor(x, b.Const(0, 16)))
			want = 0
		}
		return Eval(term, a) == want
	}
	if err := quick.Check(f, testseed.Quick(t, 3000)); err != nil {
		t.Fatal(err)
	}
}

// TestDivisionRules checks every UDiv/URem builder rule at the divisor
// edges against Eval of the unsimplified node: for each width and each
// constant divisor in {0, 1, a power of two, all-ones}, the folded term
// must evaluate like the raw operator, with x symbolic and with x
// constant. Zero is the row that matters: it passes the power-of-two
// bit test, and UDiv once strength-reduced x/0 to x>>0 = x where
// SMT-LIB (and Eval, and the VM's divu) say all-ones.
func TestDivisionRules(t *testing.T) {
	ops := []struct {
		name  string
		op    Op
		build func(b *Builder, x, y *Term) *Term
	}{
		{"udiv", OpUDiv, (*Builder).UDiv},
		{"urem", OpURem, (*Builder).URem},
	}
	for _, w := range []uint{1, 8, 32, 64} {
		b := NewBuilder()
		x := b.Var("x", w)
		top := uint64(1) << (w - 1)
		divisors := []uint64{0, 1, top, 2 & Mask(w), Mask(w)}
		samples := []uint64{0, 1, top, Mask(w), 0xA5A5A5A5A5A5A5A5 & Mask(w)}
		for _, o := range ops {
			for _, d := range divisors {
				y := b.Const(d, w)
				raw := b.binary(o.op, x, y, uint8(w))
				sym := o.build(b, x, y)
				for _, xv := range samples {
					a := Assignment{"x": xv}
					want := Eval(raw, a)
					if got := Eval(sym, a); got != want {
						t.Errorf("w=%d %s(x, %#x) at x=%#x: folded to %v = %#x, want %#x", w, o.name, d, xv, sym, got, want)
					}
					if got := Eval(o.build(b, b.Const(xv, w), y), nil); got != want {
						t.Errorf("w=%d %s(%#x, %#x) = %#x, want %#x", w, o.name, xv, d, got, want)
					}
				}
			}
		}
	}
}

// TestCanonicalizingRules checks the builder's construction-time
// rewrite rules. Hash-consing makes pointer equality the
// proof that a rule fired: both sides must intern to the same node.
func TestCanonicalizingRules(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	p := b.Var("p", 1)
	c := func(v uint64) *Term { return b.Const(v, 8) }

	cases := []struct {
		name string
		got  *Term
		want *Term
	}{
		{"add-chain-fold", b.Add(b.Add(x, c(3)), c(4)), b.Add(x, c(7))},
		{"sub-const-to-add", b.Sub(x, c(3)), b.Add(x, c(253))},
		{"mul-pow2-to-shl", b.Mul(x, c(8)), b.Shl(x, c(3))},
		{"udiv-pow2-to-lshr", b.UDiv(x, c(4)), b.Lshr(x, c(2))},
		{"urem-pow2-to-and", b.URem(x, c(8)), b.And(x, c(7))},
		{"eq-true-collapse", b.Eq(p, b.Bool(true)), p},
		{"eq-false-collapse", b.Eq(p, b.Bool(false)), b.NotBool(p)},
		{"not-ult-flips", b.NotBool(b.Ult(x, c(5))), b.Ule(c(5), x)},
		{"not-ule-flips", b.NotBool(b.Ule(x, c(5))), b.Ult(c(5), x)},
		{"ult-one-is-eq-zero", b.Ult(x, c(1)), b.Eq(x, c(0))},
		{"ule-zero-lb-is-true", b.Ule(c(0), x), b.Bool(true)},
		{"ule-max-ub-is-true", b.Ule(x, c(255)), b.Bool(true)},
		{"ule-zero-ub-is-eq", b.Ule(x, c(0)), b.Eq(x, c(0))},
		{"ult-max-lhs-false", b.Ult(c(255), x), b.Bool(false)},
		{"eq-add-const-fold", b.Eq(b.Add(x, c(3)), c(10)), b.Eq(x, c(7))},
		{"eq-xor-const-fold", b.Eq(b.Xor(x, c(0xF0)), c(0xFF)), b.Eq(x, c(0x0F))},
		{"eq-not-fold", b.Eq(b.Not(x), c(0xF0)), b.Eq(x, c(0x0F))},
		{"eq-zext-narrow", b.Eq(b.ZExt(x, 16), b.Const(7, 16)), b.Eq(x, c(7))},
		{"eq-zext-overflow-false", b.Eq(b.ZExt(x, 16), b.Const(0x100, 16)), b.Bool(false)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.got != tc.want {
				t.Fatalf("rule did not fire: got %v, want %v", tc.got, tc.want)
			}
		})
	}

	// Every fired rule must also be semantically sound: evaluate both
	// shapes (built from raw Terms via Eval) across all 8-bit values.
	for xv := uint64(0); xv < 256; xv++ {
		m := Assignment{"x": xv}
		if got, want := Eval(b.Add(b.Add(x, c(3)), c(4)), m), (xv+7)&0xFF; got != want {
			t.Fatalf("add fold wrong at x=%d: got %d want %d", xv, got, want)
		}
		if got, want := Eval(b.Mul(x, c(8)), m), (xv*8)&0xFF; got != want {
			t.Fatalf("mul->shl wrong at x=%d: got %d want %d", xv, got, want)
		}
		if got, want := Eval(b.URem(x, c(8)), m), xv%8; got != want {
			t.Fatalf("urem->and wrong at x=%d: got %d want %d", xv, got, want)
		}
	}
}

// TestVarSetMemo checks the builder's memoized variable sets: sorted,
// deduplicated, and stable across repeated calls.
func TestVarSetMemo(t *testing.T) {
	b := NewBuilder()
	x, y, z := b.Var("x", 8), b.Var("y", 8), b.Var("z", 8)
	tm := b.Add(b.Mul(z, y), b.Add(x, z))
	vs := b.VarSet(tm)
	if len(vs) != 3 || vs[0] != x || vs[1] != y || vs[2] != z {
		t.Fatalf("VarSet = %v, want [x y z]", vs)
	}
	vs2 := b.VarSet(tm)
	if len(vs2) != 3 || &vs[0] == nil {
		t.Fatal("memoized VarSet changed")
	}
	if got := b.VarSet(b.Const(9, 8)); len(got) != 0 {
		t.Fatalf("const VarSet = %v, want empty", got)
	}
	if got := b.VarSet(x); len(got) != 1 || got[0] != x {
		t.Fatalf("var VarSet = %v, want [x]", got)
	}
}

// fuzzBytes hands out a fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (p *fuzzBytes) byte() byte {
	if len(*p) == 0 {
		return 0
	}
	c := (*p)[0]
	*p = (*p)[1:]
	return c
}

// word reads up to eight bytes, little-endian.
func (p *fuzzBytes) word() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p.byte()) << (8 * i)
	}
	return v
}

// FuzzBuilderMatchesEval builds a random DAG over every operator and
// width, from constant and variable leaves, and checks that the built
// term evaluates, under a random assignment, to the value of the
// unsimplified op tree computed node by node with apply. It then walks
// the intern table: no node may have only constant operands, since the
// Builder folds every such node to a constant.
func FuzzBuilderMatchesEval(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		b := NewBuilder()
		a := Assignment{}
		type node struct {
			t *Term
			v uint64
		}
		// pool[w] holds the nodes built so far of width w, for sharing.
		var pool [65][]node
		var gen func(w uint, depth int) node
		gen = func(w uint, depth int) node {
			if c := in.byte(); depth == 0 || c < 64 {
				if len(pool[w]) > 0 && c&1 != 0 {
					return pool[w][int(c>>1)%len(pool[w])]
				}
				if c&2 != 0 {
					x := b.Var(fmt.Sprintf("v%d_%d", w, c>>2&1), w)
					if _, ok := a[x.name]; !ok {
						a[x.name] = in.word()
					}
					return node{x, a[x.name] & Mask(w)}
				}
				consts := []uint64{0, 1, Mask(w), 1 << (uint64(c>>3) % uint64(w)), in.word()}
				v := consts[int(c>>2)%len(consts)] & Mask(w)
				return node{b.Const(v, w), v}
			}
			var n node
			// One past builtOps stands for Builder.Ne, which makes
			// no op of its own.
			sel := int(in.byte()) % (len(builtOps) + 1)
			ne := sel == len(builtOps)
			op := OpEq
			if !ne {
				op = builtOps[sel]
			}
			switch op {
			case OpNot:
				x := gen(w, depth-1)
				n = node{b.Not(x.t), apply(op, uint8(w), uint8(w), 0, x.v, 0)}
			case OpEq, OpUlt, OpUle, OpSlt, OpSle:
				if w != 1 {
					return gen(w, 0)
				}
				xw := uint(in.byte())%64 + 1
				x, y := gen(xw, depth-1), gen(xw, depth-1)
				n = node{build(b, op, x.t, y.t, 1), apply(op, 1, uint8(xw), 0, x.v, y.v)}
				if ne {
					n = node{b.Ne(x.t, y.t), apply(OpNot, 1, 1, 0, n.v, 0)}
				}
			case OpConcat:
				if w == 1 {
					return gen(w, 0)
				}
				hw := uint(in.byte())%(w-1) + 1
				x, y := gen(hw, depth-1), gen(w-hw, depth-1)
				n = node{b.Concat(x.t, y.t), apply(op, uint8(w), uint8(hw), 0, x.v, y.v)}
			case OpExtract:
				xw := w + uint(in.byte())%(65-w)
				lo := uint(in.byte()) % (xw - w + 1)
				x := gen(xw, depth-1)
				n = node{b.Extract(x.t, lo, w), apply(op, uint8(w), uint8(xw), uint8(lo), x.v, 0)}
			case OpZExt, OpSExt:
				xw := uint(in.byte())%w + 1
				x := gen(xw, depth-1)
				n = node{build(b, op, x.t, nil, w), apply(op, uint8(w), uint8(xw), 0, x.v, 0)}
			default: // the binary ops over one width
				x, y := gen(w, depth-1), gen(w, depth-1)
				n = node{build(b, op, x.t, y.t, w), apply(op, uint8(w), uint8(w), 0, x.v, y.v)}
			}
			pool[w] = append(pool[w], n)
			return n
		}
		gen(uint(in.byte())%64+1, 6)
		var ev Evaluator
		for _, p := range pool {
			for _, n := range p {
				if got := ev.Eval(n.t, a); got != n.v {
					t.Fatalf("%v = %#x under %v, want %#x", n.t, got, a, n.v)
				}
			}
		}
		for i := range b.shards {
			for _, bucket := range b.shards[i].table {
				for _, tm := range bucket {
					if len(tm.args) > 0 && tm.args[0].IsConst() && (len(tm.args) < 2 || tm.args[1].IsConst()) {
						t.Fatalf("interned %v has only constant operands", tm)
					}
				}
			}
		}
	})
}

// TestConstantOperandsInternOnlyTheResult: Sub, and Mul, UDiv and URem
// by a power of two, rewrite x op c into another op on a new constant.
// With x constant too the rewrite is skipped, and the node folds in
// intern: each call adds one entry to the intern table, its result.
func TestConstantOperandsInternOnlyTheResult(t *testing.T) {
	entries := func(b *Builder) (n int) {
		for i := range b.shards {
			for _, bucket := range b.shards[i].table {
				n += len(bucket)
			}
		}
		return n
	}
	// Mul puts a constant x on the right, so its power of two goes
	// first.
	for _, tc := range []struct {
		op         Op
		x, y, want uint64
	}{{OpSub, 200, 8, 192}, {OpMul, 8, 200, 1600}, {OpUDiv, 200, 8, 25}, {OpURem, 200, 8, 0}} {
		b := NewBuilder()
		x, y := b.Const(tc.x, 16), b.Const(tc.y, 16)
		before := entries(b)
		got := build(b, tc.op, x, y, 16)
		if v, ok := got.Const(); !ok || v != tc.want {
			t.Fatalf("%v of %d and %d = %v, want constant %d", tc.op, tc.x, tc.y, got, tc.want)
		}
		if n := entries(b) - before; n != 1 {
			t.Errorf("%v of two constants added %d intern entries, want 1", tc.op, n)
		}
	}
}

// builtOps is every operator a Builder makes from operands.
var builtOps = []Op{
	OpAdd, OpSub, OpMul, OpUDiv, OpURem, OpAnd, OpOr, OpXor, OpNot,
	OpShl, OpLshr, OpAshr, OpEq, OpUlt, OpUle, OpSlt, OpSle,
	OpConcat, OpExtract, OpZExt, OpSExt,
}

// build calls the Builder constructor of a binary op on x and y, or
// extends x to width w for OpZExt and OpSExt.
func build(b *Builder, op Op, x, y *Term, w uint) *Term {
	switch op {
	case OpAdd:
		return b.Add(x, y)
	case OpSub:
		return b.Sub(x, y)
	case OpMul:
		return b.Mul(x, y)
	case OpUDiv:
		return b.UDiv(x, y)
	case OpURem:
		return b.URem(x, y)
	case OpAnd:
		return b.And(x, y)
	case OpOr:
		return b.Or(x, y)
	case OpXor:
		return b.Xor(x, y)
	case OpShl:
		return b.Shl(x, y)
	case OpLshr:
		return b.Lshr(x, y)
	case OpAshr:
		return b.Ashr(x, y)
	case OpEq:
		return b.Eq(x, y)
	case OpUlt:
		return b.Ult(x, y)
	case OpUle:
		return b.Ule(x, y)
	case OpSlt:
		return b.Slt(x, y)
	case OpSle:
		return b.Sle(x, y)
	case OpZExt:
		return b.ZExt(x, w)
	case OpSExt:
		return b.SExt(x, w)
	}
	panic(fmt.Sprintf("build: op %v", op))
}
