package solver

import (
	"sync"
	"testing"

	"hardsnap/internal/expr"
)

func TestCacheKeyCanonical(t *testing.T) {
	b := expr.NewBuilder()
	c := NewCache(0)
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	a := b.Ult(x, b.Const(10, 8))
	d := b.Eq(y, b.Const(3, 8))

	k1 := c.Key([]*expr.Term{a, d})
	k2 := c.Key([]*expr.Term{d, a})
	if k1 != k2 {
		t.Fatal("key must be order-independent")
	}
	k3 := c.Key([]*expr.Term{a, d, a})
	if k3 != k1 {
		t.Fatal("key must ignore duplicates")
	}
	k4 := c.Key([]*expr.Term{a, b.Bool(true), d})
	if k4 != k1 {
		t.Fatal("key must ignore constant-true terms")
	}
	k5 := c.Key([]*expr.Term{a})
	if k5 == k1 {
		t.Fatal("different sets must get different keys")
	}

	// The same constraints built by an independent Builder must
	// produce the same canonical key: the digest is structural, not
	// pointer-based.
	b2 := expr.NewBuilder()
	a2 := b2.Ult(b2.Var("x", 8), b2.Const(10, 8))
	d2 := b2.Eq(b2.Var("y", 8), b2.Const(3, 8))
	if c.Key([]*expr.Term{a2, d2}) != k1 {
		t.Fatal("key must be stable across builders")
	}
}

func TestSolverCacheHit(t *testing.T) {
	b := expr.NewBuilder()
	cache := NewCache(0)
	s1 := New(b, 0)
	s1.Cache = cache
	x := b.Var("x", 8)
	cs := []*expr.Term{b.Ult(x, b.Const(10, 8))}

	res, model, err := s1.Check(cs)
	if err != nil || res != Sat {
		t.Fatalf("first check: %v %v", res, err)
	}
	if cache.Stats().Hits != 0 {
		t.Fatal("first query must miss")
	}

	// Second solver sharing the cache gets a hit with the same model.
	s2 := New(b, 0)
	s2.Cache = cache
	res2, model2, err := s2.Check(cs)
	if err != nil || res2 != Sat {
		t.Fatalf("second check: %v %v", res2, err)
	}
	if s2.Stats.CacheHits != 1 || cache.Stats().Hits != 1 {
		t.Fatalf("expected one hit, stats %+v", cache.Stats())
	}
	if model2["x"] != model["x"] {
		t.Fatalf("cached model differs: %v vs %v", model2, model)
	}
	// The returned model is a copy: mutating it must not poison later hits.
	model2["x"] = 0xff
	_, model3, _ := s2.Check(cs)
	if model3["x"] == 0xff {
		t.Fatal("cache returned an aliased model")
	}

	// Unsat verdicts are cached too.
	un := []*expr.Term{b.Ult(x, b.Const(10, 8)), b.Eq(x, b.Const(200, 8))}
	if r, _, _ := s1.Check(un); r != Unsat {
		t.Fatalf("want unsat, got %v", r)
	}
	if r, _, _ := s2.Check(un); r != Unsat {
		t.Fatalf("want cached unsat, got %v", r)
	}
	if cache.Stats().Hits != 3 {
		t.Fatalf("expected three hits, stats %+v", cache.Stats())
	}
}

func TestCacheEviction(t *testing.T) {
	b := expr.NewBuilder()
	c := NewCache(cacheShards) // one entry per shard
	x := b.Var("x", 16)
	for i := 0; i < 200; i++ {
		k := c.Key([]*expr.Term{b.Eq(x, b.Const(uint64(i), 16))})
		c.Store(k, Unsat, nil)
	}
	st := c.Stats()
	if st.Entries > cacheShards {
		t.Fatalf("capacity not enforced: %d entries", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

func TestCacheConcurrent(t *testing.T) {
	b := expr.NewBuilder()
	cache := NewCache(64)
	x := b.Var("x", 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := New(b, 0)
			s.Cache = cache
			for i := 0; i < 50; i++ {
				v := uint64(i % 10)
				res, model, err := s.Check([]*expr.Term{b.Eq(x, b.Const(v, 16))})
				if err != nil || res != Sat || model["x"] != v {
					t.Errorf("goroutine %d: res=%v model=%v err=%v", g, res, model, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected cross-goroutine hits, stats %+v", st)
	}
}
