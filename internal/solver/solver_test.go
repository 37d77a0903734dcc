package solver

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hardsnap/internal/expr"
	"hardsnap/internal/testseed"
)

func checkSat(t *testing.T, s *Solver, cs []*expr.Term) expr.Assignment {
	t.Helper()
	res, m := s.Check(cs, nil)
	if res != Sat {
		t.Fatalf("expected sat, got %v", res)
	}
	for _, c := range cs {
		if expr.Eval(c, m) != 1 {
			t.Fatalf("model %v does not satisfy %v", m, c)
		}
	}
	return m
}

func checkUnsat(t *testing.T, s *Solver, cs []*expr.Term) {
	t.Helper()
	res, _ := s.Check(cs, nil)
	if res != Unsat {
		t.Fatalf("expected unsat, got %v", res)
	}
}

func TestTrivial(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	checkSat(t, s, nil)
	checkSat(t, s, []*expr.Term{b.Bool(true)})
	checkUnsat(t, s, []*expr.Term{b.Bool(false)})
}

func TestSimpleEquation(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	// x + 3 == 10  ->  x == 7
	m := checkSat(t, s, []*expr.Term{b.Eq(b.Add(x, b.Const(3, 8)), b.Const(10, 8))})
	if m["x"] != 7 {
		t.Fatalf("x = %d, want 7", m["x"])
	}
}

func TestContradiction(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	checkUnsat(t, s, []*expr.Term{
		b.Eq(x, b.Const(1, 8)),
		b.Eq(x, b.Const(2, 8)),
	})
}

func TestUnsignedComparison(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	m := checkSat(t, s, []*expr.Term{
		b.Ult(b.Const(250, 8), x),
		b.Ult(x, b.Const(253, 8)),
	})
	if m["x"] != 251 && m["x"] != 252 {
		t.Fatalf("x = %d, want 251 or 252", m["x"])
	}
	checkUnsat(t, s, []*expr.Term{
		b.Ult(b.Const(252, 8), x),
		b.Ult(x, b.Const(253, 8)),
	})
}

func TestSignedComparison(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	m := checkSat(t, s, []*expr.Term{
		b.Slt(x, b.Const(0, 8)),
		b.Slt(b.Const(0xFD, 8), x), // -3 < x < 0
	})
	got := int8(m["x"])
	if got != -2 && got != -1 {
		t.Fatalf("x = %d, want -2 or -1", got)
	}
}

func TestMultiplication(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	// x * y == 35, x > 1, y > 1 -> {5,7}
	m := checkSat(t, s, []*expr.Term{
		b.Eq(b.Mul(x, y), b.Const(35, 8)),
		b.Ult(b.Const(1, 8), x),
		b.Ult(b.Const(1, 8), y),
		b.Ult(x, b.Const(16, 8)),
		b.Ult(y, b.Const(16, 8)),
	})
	if m["x"]*m["y"]&0xFF != 35 {
		t.Fatalf("x*y = %d, want 35", m["x"]*m["y"])
	}
}

func TestDivision(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	// x / 7 == 5 and x % 7 == 3 -> x == 38
	m := checkSat(t, s, []*expr.Term{
		b.Eq(b.UDiv(x, b.Const(7, 8)), b.Const(5, 8)),
		b.Eq(b.URem(x, b.Const(7, 8)), b.Const(3, 8)),
	})
	if m["x"] != 38 {
		t.Fatalf("x = %d, want 38", m["x"])
	}
}

func TestDivisionByZeroSemantics(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	// y == 0 and x / y == x_div -> x_div must be 0xFF
	checkUnsat(t, s, []*expr.Term{
		b.Eq(y, b.Const(0, 8)),
		b.Ne(b.UDiv(x, y), b.Const(0xFF, 8)),
	})
	// x % 0 == x
	checkUnsat(t, s, []*expr.Term{
		b.Eq(y, b.Const(0, 8)),
		b.Ne(b.URem(x, y), x),
	})
}

func TestShifts(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	sh := b.Var("sh", 8)
	m := checkSat(t, s, []*expr.Term{
		b.Eq(b.Shl(x, sh), b.Const(0x40, 8)),
		b.Eq(sh, b.Const(3, 8)),
		b.Ult(x, b.Const(16, 8)),
	})
	if m["x"] != 8 {
		t.Fatalf("x = %d, want 8", m["x"])
	}
	// Oversized shift yields zero.
	checkUnsat(t, s, []*expr.Term{
		b.Eq(sh, b.Const(9, 8)),
		b.Ne(b.Shl(x, sh), b.Const(0, 8)),
	})
}

func TestAshrSymbolic(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	// x >> 4 (arith) == 0xFF implies sign bit set.
	m := checkSat(t, s, []*expr.Term{
		b.Eq(b.Ashr(x, b.Const(4, 8)), b.Const(0xFF, 8)),
	})
	if m["x"]&0x80 == 0 {
		t.Fatalf("x = %#x should have sign bit set", m["x"])
	}
}

func TestConcatExtract(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	hi := b.Var("hi", 8)
	lo := b.Var("lo", 8)
	word := b.Concat(hi, lo)
	m := checkSat(t, s, []*expr.Term{
		b.Eq(word, b.Const(0xBEEF, 16)),
	})
	if m["hi"] != 0xBE || m["lo"] != 0xEF {
		t.Fatalf("hi=%#x lo=%#x, want BE/EF", m["hi"], m["lo"])
	}
}

// TestCheckPanicsOnNonBoolean: a constraint must be width 1; any other
// width is a caller bug, and Check names the width in its panic.
func TestCheckPanicsOnNonBoolean(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "width 8") {
			t.Fatalf("panic %q does not name width 8", msg)
		}
	}()
	s.Check([]*expr.Term{b.Var("x", 8)}, nil)
	t.Fatal("Check accepted a width-8 constraint")
}

// TestEnumerateValues: every enumerated value is distinct and in
// range, and comes with a model that satisfies the constraints and
// evaluates the term to that value.
func TestEnumerateValues(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	cs := []*expr.Term{b.Ult(x, b.Const(3, 8))}
	vals, models := s.Enumerate(cs, nil, x, 10)
	if len(vals) != 3 || len(models) != 3 {
		t.Fatalf("got %d values and %d models, want 3 each: %v", len(vals), len(models), vals)
	}
	seen := map[uint64]bool{}
	for i, v := range vals {
		if v >= 3 {
			t.Fatalf("value %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
		if expr.Eval(cs[0], models[i]) != 1 || expr.Eval(x, models[i]) != v {
			t.Fatalf("model %v does not produce value %d under the constraints", models[i], v)
		}
	}
}

// TestExhaustiveSmallWidth cross-checks the solver against brute-force
// enumeration on 4-bit problems covering every operator.
func TestExhaustiveSmallWidth(t *testing.T) {
	b := expr.NewBuilder()
	x := b.Var("x", 4)
	y := b.Var("y", 4)

	ops := []struct {
		name string
		mk   func(x, y *expr.Term) *expr.Term
	}{
		{"add", func(x, y *expr.Term) *expr.Term { return b.Add(x, y) }},
		{"sub", func(x, y *expr.Term) *expr.Term { return b.Sub(x, y) }},
		{"mul", func(x, y *expr.Term) *expr.Term { return b.Mul(x, y) }},
		{"udiv", func(x, y *expr.Term) *expr.Term { return b.UDiv(x, y) }},
		{"urem", func(x, y *expr.Term) *expr.Term { return b.URem(x, y) }},
		{"and", func(x, y *expr.Term) *expr.Term { return b.And(x, y) }},
		{"or", func(x, y *expr.Term) *expr.Term { return b.Or(x, y) }},
		{"xor", func(x, y *expr.Term) *expr.Term { return b.Xor(x, y) }},
		{"shl", func(x, y *expr.Term) *expr.Term { return b.Shl(x, y) }},
		{"lshr", func(x, y *expr.Term) *expr.Term { return b.Lshr(x, y) }},
		{"ashr", func(x, y *expr.Term) *expr.Term { return b.Ashr(x, y) }},
	}

	rng := rand.New(rand.NewSource(7))
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			term := op.mk(x, y)
			// Pick a handful of target values; solver answer must agree
			// with brute force feasibility.
			for trial := 0; trial < 6; trial++ {
				target := uint64(rng.Intn(16))
				feasible := false
				for xv := uint64(0); xv < 16 && !feasible; xv++ {
					for yv := uint64(0); yv < 16; yv++ {
						if expr.Eval(term, expr.Assignment{"x": xv, "y": yv}) == target {
							feasible = true
							break
						}
					}
				}
				s := New(b)
				cs := []*expr.Term{b.Eq(term, b.Const(target, 4))}
				res, m := s.Check(cs, nil)
				if feasible && res != Sat {
					t.Fatalf("%s == %d feasible but solver says %v", op.name, target, res)
				}
				if !feasible && res != Unsat {
					t.Fatalf("%s == %d infeasible but solver says %v (model %v)", op.name, target, res, m)
				}
			}
		})
	}
}

// TestQuickModelsSatisfy asserts via testing/quick that whenever the
// solver answers Sat, the returned model really satisfies the
// constraints.
func TestQuickModelsSatisfy(t *testing.T) {
	f := func(av, bv uint16, sel uint8) bool {
		b := expr.NewBuilder()
		s := New(b)
		x := b.Var("x", 16)
		y := b.Var("y", 16)
		var c1, c2 *expr.Term
		switch sel % 4 {
		case 0:
			c1 = b.Eq(b.Add(x, y), b.Const(uint64(av), 16))
			c2 = b.Ult(x, b.Const(uint64(bv)|1, 16))
		case 1:
			c1 = b.Eq(b.Xor(x, y), b.Const(uint64(av), 16))
			c2 = b.Eq(b.And(x, b.Const(0xFF, 16)), b.Const(uint64(bv&0xFF), 16))
		case 2:
			c1 = b.Ule(x, b.Const(uint64(av), 16))
			c2 = b.Ule(b.Const(uint64(bv), 16), x)
		default:
			c1 = b.Eq(b.Sub(x, y), b.Const(uint64(av), 16))
			c2 = b.Slt(y, b.Const(uint64(bv), 16))
		}
		cs := []*expr.Term{c1, c2}
		res, m := s.Check(cs, nil)
		if res == Sat {
			return expr.Eval(c1, m) == 1 && expr.Eval(c2, m) == 1
		}
		return res == Unsat
	}
	if err := quick.Check(f, testseed.Quick(t, 60)); err != nil {
		t.Fatal(err)
	}
}

func Test32BitArithmetic(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 32)
	// Classic: find x with (x ^ 0xDEADBEEF) + 0x1111 == 0xCAFEBABE
	m := checkSat(t, s, []*expr.Term{
		b.Eq(b.Add(b.Xor(x, b.Const(0xDEADBEEF, 32)), b.Const(0x1111, 32)), b.Const(0xCAFEBABE, 32)),
	})
	got := (m["x"] ^ 0xDEADBEEF) + 0x1111&0xFFFFFFFF
	if got&0xFFFFFFFF != 0xCAFEBABE {
		t.Fatalf("model check failed: %#x", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	checkSat(t, s, []*expr.Term{b.Eq(x, b.Const(5, 8))})
	checkUnsat(t, s, []*expr.Term{b.Bool(false)})
	if s.Stats.Queries != 2 || s.Stats.SatAnswers != 1 || s.Stats.UnsatAnswers != 1 {
		t.Fatalf("stats wrong: %+v", s.Stats)
	}
}
