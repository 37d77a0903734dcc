package solver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hardsnap/internal/expr"
	"hardsnap/internal/testseed"
)

// chooser abstracts the random source so the same constraint generator
// drives both the seeded property tests and the byte-driven fuzz
// harness.
type chooser interface {
	pick(n int) int
}

type randChooser struct{ r *rand.Rand }

func (c randChooser) pick(n int) int { return c.r.Intn(n) }

// byteChooser consumes fuzz input bytes; exhausted input always picks
// 0, which drives the generator toward quick termination.
type byteChooser struct {
	data []byte
	i    int
}

func (c *byteChooser) pick(n int) int {
	if c.i >= len(c.data) {
		return 0
	}
	v := int(c.data[c.i]) % n
	c.i++
	return v
}

// genTerm builds a random width-w term over the variable pool.
func genTerm(c chooser, b *expr.Builder, vars []*expr.Term, w uint, depth int) *expr.Term {
	if depth <= 0 || c.pick(4) == 0 {
		if c.pick(3) == 0 {
			return b.Const(uint64(c.pick(1<<w)), w)
		}
		return vars[c.pick(len(vars))]
	}
	x := genTerm(c, b, vars, w, depth-1)
	y := genTerm(c, b, vars, w, depth-1)
	switch c.pick(12) {
	case 0:
		return b.Add(x, y)
	case 1:
		return b.Sub(x, y)
	case 2:
		return b.Mul(x, y)
	case 3:
		return b.And(x, y)
	case 4:
		return b.Or(x, y)
	case 5:
		return b.Xor(x, y)
	case 6:
		return b.Shl(x, b.Const(uint64(c.pick(int(w))), w))
	case 7:
		return b.UDiv(x, y)
	case 8:
		return b.URem(x, y)
	case 9:
		return b.Not(x)
	case 10:
		return b.Sub(b.Const(0, w), x)
	default:
		// if-then-else as a select mask: all ones when the condition
		// holds, all zeros otherwise.
		m := b.SExt(genBool(c, b, vars, depth-1), w)
		return b.Or(b.And(x, m), b.And(y, b.Not(m)))
	}
}

// genBool builds a random width-1 constraint term.
func genBool(c chooser, b *expr.Builder, vars []*expr.Term, depth int) *expr.Term {
	w := vars[0].Width()
	if depth > 0 && c.pick(4) == 0 {
		switch c.pick(3) {
		case 0:
			return b.And(genBool(c, b, vars, depth-1), genBool(c, b, vars, depth-1))
		case 1:
			return b.Or(genBool(c, b, vars, depth-1), genBool(c, b, vars, depth-1))
		default:
			return b.NotBool(genBool(c, b, vars, depth-1))
		}
	}
	x := genTerm(c, b, vars, w, depth)
	y := genTerm(c, b, vars, w, depth)
	switch c.pick(6) {
	case 0:
		return b.Eq(x, y)
	case 1:
		return b.Ne(x, y)
	case 2:
		return b.Ult(x, y)
	case 3:
		return b.Ule(x, y)
	case 4:
		return b.Slt(x, y)
	default:
		return b.Sle(x, y)
	}
}

// genQuery builds one constraint conjunction (1-6 constraints).
func genQuery(c chooser, b *expr.Builder, vars []*expr.Term) []*expr.Term {
	n := 1 + c.pick(6)
	cs := make([]*expr.Term, 0, n)
	for i := 0; i < n; i++ {
		cs = append(cs, genBool(c, b, vars, 2))
	}
	return cs
}

func varPool(b *expr.Builder, w uint) []*expr.Term {
	names := []string{"a", "b", "c", "d", "e"}
	vars := make([]*expr.Term, len(names))
	for i, n := range names {
		vars[i] = b.Var(n, w)
	}
	return vars
}

// plainCheck is the reference oracle: every constraint blasted into
// one fresh SAT instance and solved once, with no slicing, cache, model
// reuse or incremental state.
func plainCheck(cs []*expr.Term) (Result, expr.Assignment) {
	core := newSAT()
	bl := newBlaster(core)
	for _, c := range cs {
		core.addClause([]lit{bl.blast(c)[0]})
	}
	if !core.solveAssuming(nil) {
		return Unsat, nil
	}
	return Sat, bl.model()
}

// diffOne runs one query on the plain oracle and the (long-lived)
// pipeline solver and cross-checks the verdicts and both models. The
// solver is reused across queries on purpose: the model-reuse ring and
// the incremental context only have state to corrupt from the second
// query on.
func diffOne(t errorSink, opt *Solver, cs []*expr.Term) bool {
	pres, pm := plainCheck(cs)
	ores, om := opt.Check(cs, nil)
	if pres != ores {
		t.Errorf("verdict mismatch: plain=%v pipeline=%v on %v", pres, ores, cs)
		return false
	}
	if pres == Sat {
		for _, c := range cs {
			if expr.Eval(c, pm) != 1 {
				t.Errorf("plain model %v does not satisfy %v", pm, c)
				return false
			}
			if expr.Eval(c, om) != 1 {
				t.Errorf("pipeline model %v does not satisfy %v", om, c)
				return false
			}
		}
	}
	return true
}

// errorSink lets diffOne serve *testing.T, *testing.F and quick.Check.
type errorSink interface {
	Errorf(format string, args ...any)
}

// TestDifferentialRandom cross-checks the pipeline against the plain
// oracle on seeded random conjunctions, without and with a verdict
// cache.
func TestDifferentialRandom(t *testing.T) {
	for name, cached := range map[string]bool{"full": false, "full+cache": true} {
		cached := cached
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 20; seed++ {
				b := expr.NewBuilder()
				vars := varPool(b, 4)
				opt := New(b)
				if cached {
					opt.Cache = NewCache(0)
				}
				c := randChooser{rand.New(rand.NewSource(seed))}
				for q := 0; q < 25; q++ {
					diffOne(t, opt, genQuery(c, b, vars))
					if t.Failed() {
						t.Fatalf("seed %d query %d", seed, q)
					}
				}
			}
		})
	}
}

// udivZeroSeeds are TestDifferentialQuick seeds that used to fail: each
// generates a bvudiv whose divisor is (or is concretized to) zero, which
// expr.Builder.UDiv folded to x instead of all-ones.
var udivZeroSeeds = []uint64{
	0x6d1324d91249aff3,
	0xa67cde2c873d73d4,
	0xefa814c88f7e28f7,
	0x8c9ef71fde689a86,
}

// TestDifferentialQuick is the testing/quick flavor: any uint64 seed
// must produce agreement across a batch of queries. The regression
// seeds run first, then quick's own draw from the repo's fixed source.
func TestDifferentialQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		b := expr.NewBuilder()
		vars := varPool(b, 4)
		opt := New(b)
		opt.Cache = NewCache(0)
		c := randChooser{rand.New(rand.NewSource(int64(seed)))}
		for q := 0; q < 10; q++ {
			if !diffOne(t, opt, genQuery(c, b, vars)) {
				return false
			}
		}
		return true
	}
	for _, seed := range udivZeroSeeds {
		if !prop(seed) {
			t.Fatalf("regression seed %#x", seed)
		}
	}
	if err := quick.Check(prop, testseed.Quick(t, 40)); err != nil {
		t.Fatal(err)
	}
}

// FuzzDifferential drives the generator with raw fuzz bytes: every
// byte is one generator decision, so the fuzzer mutates constraint
// structure directly rather than a PRNG seed.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 127, 64, 32, 9, 200, 13, 77, 3, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := expr.NewBuilder()
		vars := varPool(b, 4)
		opt := New(b)
		opt.Cache = NewCache(0)
		c := &byteChooser{data: data}
		for q := 0; q < 4 && c.i < len(data); q++ {
			diffOne(t, opt, genQuery(c, b, vars))
		}
	})
}

// TestSlicingSharedVariableChains is the regression table for the
// partitioner around shared-variable chains: constraints linked only
// transitively (a touches x,y; b touches y,z) must stay in one slice,
// and genuinely independent groups must split.
func TestSlicingSharedVariableChains(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x, y, z, w := b.Var("x", 8), b.Var("y", 8), b.Var("z", 8), b.Var("w", 8)
	c := func(v uint64) *expr.Term { return b.Const(v, 8) }

	cases := []struct {
		name   string
		cs     []*expr.Term
		slices int
	}{
		{"chain-through-middle", []*expr.Term{b.Eq(b.Add(x, y), c(3)), b.Eq(b.Add(y, z), c(4))}, 1},
		{"three-link-chain", []*expr.Term{b.Ult(x, y), b.Ult(y, z), b.Ult(z, w)}, 1},
		{"two-independent-pairs", []*expr.Term{b.Eq(x, y), b.Eq(z, w)}, 2},
		{"fully-independent", []*expr.Term{b.Eq(x, c(1)), b.Eq(y, c(2)), b.Eq(z, c(3))}, 3},
		{"mixed", []*expr.Term{b.Eq(b.Add(x, y), c(9)), b.Ult(y, c(5)), b.Eq(z, w)}, 2},
		{"same-var-twice", []*expr.Term{b.Ult(x, c(5)), b.Ult(c(2), x)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := s.partition(tc.cs)
			if len(got) != tc.slices {
				t.Fatalf("partition produced %d slices, want %d: %v", len(got), tc.slices, got)
			}
			total := 0
			for _, sl := range got {
				total += len(sl)
			}
			if total != len(tc.cs) {
				t.Fatalf("partition dropped constraints: %d in, %d out", len(tc.cs), total)
			}
		})
	}

	// Verdict-level regression: a chain that is unsatisfiable only
	// through its shared variable must not be split apart.
	s2 := New(b)
	res, _ := s2.Check([]*expr.Term{
		b.Eq(x, y), b.Eq(y, z), b.Eq(z, c(5)), b.Ne(x, c(5)),
	}, nil)
	if res != Unsat {
		t.Fatalf("chained contradiction: got %v, want unsat", res)
	}
	// And the satisfiable version must produce a consistent model
	// across the chain.
	r, m := s2.Check([]*expr.Term{b.Eq(x, y), b.Eq(y, z), b.Eq(z, c(5))}, nil)
	if r != Sat || m["x"] != 5 || m["y"] != 5 || m["z"] != 5 {
		t.Fatalf("chained equality model = %v, want all 5", m)
	}
}

// TestModelReuseHit: a remembered model that satisfies a later query
// answers it without solving.
func TestModelReuseHit(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	if _, m := mustSat(t, s, []*expr.Term{b.Eq(x, b.Const(7, 8))}); m["x"] != 7 {
		t.Fatalf("x=%d, want 7", m["x"])
	}
	// x=7 also satisfies x>3: the ring must answer this.
	before := s.Stats.ModelHits
	mustSat(t, s, []*expr.Term{b.Ult(b.Const(3, 8), x)})
	if s.Stats.ModelHits != before+1 {
		t.Fatalf("ModelHits=%d, want %d", s.Stats.ModelHits, before+1)
	}
}

// TestIncrementalReuse: growing path-condition queries re-use guards
// instead of re-blasting, and verdicts stay correct after many
// interleaved Sat/Unsat queries on one context. Each query blocks the
// models found so far, so the recent-model ring cannot answer it and
// the context must.
func TestIncrementalReuse(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 16)
	var cs []*expr.Term
	for i := 0; i < 6; i++ {
		cs = append(cs, b.Ult(b.Const(uint64(i*3), 16), x))
		_, m := mustSat(t, s, cs)
		cs = append(cs, b.Ne(x, b.Const(m["x"], 16)))
	}
	if s.Stats.IncrementalReuses == 0 {
		t.Fatal("growing queries never re-used a guard")
	}
	// An unsat query must not poison the context for later queries.
	mustUnsat(t, s, append(append([]*expr.Term{}, cs...), b.Eq(x, b.Const(0, 16))))
	mustSat(t, s, cs)
}

// TestEnumerateVerdicts: Enumerate stops at the exhausted value space
// or at max, whichever comes first, and finds no value under
// unsatisfiable constraints.
func TestEnumerateVerdicts(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	x := b.Var("x", 8)
	cs := []*expr.Term{b.Ult(x, b.Const(3, 8))}

	if vals, _ := s.Enumerate(append(cs, b.Eq(x, b.Const(7, 8))), nil, x, 10); len(vals) != 0 {
		t.Fatalf("unsatisfiable enumeration: %d values, want none", len(vals))
	}
	vals, _ := s.Enumerate(cs, nil, x, 10)
	if len(vals) != 3 {
		t.Fatalf("exhaustive enumeration: %d values, want 3", len(vals))
	}
	vals, _ = s.Enumerate(cs, nil, x, 2)
	if len(vals) != 2 {
		t.Fatalf("capped enumeration: %d values, want 2", len(vals))
	}
	seen := map[uint64]bool{}
	for _, v := range vals {
		if v >= 3 || seen[v] {
			t.Fatalf("enumeration produced invalid or duplicate value %d", v)
		}
		seen[v] = true
	}
}

// TestRewriteEquivalence: shapes a canonicalizing rewrite would target
// (implied constants, collapsing and conflicting bounds, conjunctions)
// keep the oracle's verdicts and yield valid models.
func TestRewriteEquivalence(t *testing.T) {
	b := expr.NewBuilder()
	x, y := b.Var("x", 8), b.Var("y", 8)
	c := func(v uint64) *expr.Term { return b.Const(v, 8) }
	cases := []struct {
		name string
		cs   []*expr.Term
	}{
		{"concretization-chain", []*expr.Term{b.Eq(x, c(5)), b.Ult(x, y), b.Eq(b.Add(x, y), c(20))}},
		{"bounds-collapse", []*expr.Term{b.Ule(c(7), x), b.Ule(x, c(7)), b.Ult(x, c(200))}},
		{"bounds-conflict", []*expr.Term{b.Ult(x, c(3)), b.Ult(c(5), x)}},
		{"signed-unsigned-mix", []*expr.Term{b.Slt(x, c(10)), b.Ult(c(2), x), b.Sle(c(0), x)}},
		{"conjunction-split", []*expr.Term{b.And(b.Ult(x, c(9)), b.Ult(y, c(9)))}},
		{"redundant-bounds", []*expr.Term{b.Ult(x, c(50)), b.Ult(x, c(60)), b.Ult(x, c(40)), b.Ult(c(10), x)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffOne(t, New(b), tc.cs)
		})
	}
}

func mustSat(t *testing.T, s *Solver, cs []*expr.Term) (Result, expr.Assignment) {
	t.Helper()
	res, m := s.Check(cs, nil)
	if res != Sat {
		t.Fatalf("got %v, want sat", res)
	}
	for _, c := range cs {
		if expr.Eval(c, m) != 1 {
			t.Fatalf("model %v does not satisfy %v", m, c)
		}
	}
	return res, m
}

func mustUnsat(t *testing.T, s *Solver, cs []*expr.Term) {
	t.Helper()
	res, _ := s.Check(cs, nil)
	if res != Unsat {
		t.Fatalf("got %v, want unsat", res)
	}
}
