package solver

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"hardsnap/internal/expr"
	"hardsnap/internal/testseed"
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
	s1 := New(b)
	s1.Cache = cache
	x := b.Var("x", 8)
	cs := []*expr.Term{b.Ult(x, b.Const(10, 8))}

	res, model := s1.Check(cs, nil)
	if res != Sat {
		t.Fatalf("first check: %v", res)
	}
	if cache.Stats().Hits != 0 {
		t.Fatal("first query must miss")
	}

	// Second solver sharing the cache gets a hit with the same model.
	s2 := New(b)
	s2.Cache = cache
	res2, model2 := s2.Check(cs, nil)
	if res2 != Sat {
		t.Fatalf("second check: %v", res2)
	}
	if s2.Stats.CacheHits != 1 || cache.Stats().Hits != 1 {
		t.Fatalf("expected one hit, stats %+v", cache.Stats())
	}
	if model2["x"] != model["x"] {
		t.Fatalf("cached model differs: %v vs %v", model2, model)
	}
	// Stored models are immutable and shared: a hit returns a model
	// equal to the one the miss stored.
	if _, model3 := s2.Check(cs, nil); !maps.Equal(model3, model) {
		t.Fatalf("hit returned %v, stored %v", model3, model)
	}

	// Unsat verdicts are cached too.
	un := []*expr.Term{b.Ult(x, b.Const(10, 8)), b.Eq(x, b.Const(200, 8))}
	if r, _ := s1.Check(un, nil); r != Unsat {
		t.Fatalf("want unsat, got %v", r)
	}
	if r, _ := s2.Check(un, nil); r != Unsat {
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
			s := New(b)
			s.Cache = cache
			for i := 0; i < 50; i++ {
				v := uint64(i % 10)
				res, model := s.Check([]*expr.Term{b.Eq(x, b.Const(v, 16))}, nil)
				if res != Sat || model["x"] != v {
					t.Errorf("goroutine %d: res=%v model=%v", g, res, model)
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

// TestSetKeyIncrementalMatchesBatch: a path that folds each appended
// constraint into its SetKey, and a fork that continues from a copy of
// that key, always hold the batch Key of their lists (see checkSetKey).
func TestSetKeyIncrementalMatchesBatch(t *testing.T) {
	prop := func(seed int64) bool {
		checkSetKey(t, randChooser{rand.New(rand.NewSource(seed))})
		return !t.Failed()
	}
	if err := quick.Check(prop, testseed.Quick(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// FuzzSetKey is TestSetKeyIncrementalMatchesBatch driven by fuzz bytes.
func FuzzSetKey(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0})
	f.Add([]byte{255, 7, 3, 9, 9, 9, 1, 0, 200, 13, 77, 3, 8, 1, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSetKey(t, &byteChooser{data: data})
	})
}

// checkSetKey draws a pool of constraints plus constant-true and
// constant-false terms, appends random picks from it to a path (so
// terms repeat), and folds each appended term into the path's SetKey
// unless the same pointer came earlier, as symexec does. At every
// length the folded key must be the batch Key of the list. A fork from
// a random prefix continues from a copy of that prefix's key and must
// hold its own list's key; the batch key must ignore order and must
// not depend on which Builder interned the terms.
func checkSetKey(t testing.TB, c chooser) {
	t.Helper()
	rec := &recordChooser{c: c}
	b := expr.NewBuilder()
	pool := setKeyPool(rec, b)
	cache := NewCache(0)
	grow := func(path []*expr.Term, k SetKey, picks []int) ([]*expr.Term, []SetKey) {
		keys := []SetKey{k}
		for _, p := range picks {
			path = append(path, pool[p])
			if !slices.Contains(path[:len(path)-1], pool[p]) {
				cache.Fold(&k, pool[p])
			}
			if k.Sum() != cache.Key(path) {
				t.Fatalf("folded key of %d terms is not their batch key", len(path))
			}
			keys = append(keys, k)
		}
		return path, keys
	}
	draw := func() []int {
		picks := make([]int, c.pick(20))
		for i := range picks {
			picks[i] = c.pick(len(pool))
		}
		return picks
	}
	picks := draw()
	path, keys := grow(nil, SetKey{}, picks)

	at := c.pick(len(path) + 1)
	grow(path[:at:at], keys[at], draw())

	shuffled := slices.Clone(path)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := c.pick(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	if cache.Key(shuffled) != cache.Key(path) {
		t.Fatal("batch key depends on order")
	}

	// A second Builder that has interned other terms first, and a
	// second cache with its own digest memo, key the same set alike.
	b2 := expr.NewBuilder()
	b2.Ult(b2.Var("e", 4), b2.Var("a", 4))
	pool2 := setKeyPool(&replayChooser{picks: rec.picks}, b2)
	path2 := make([]*expr.Term, len(picks))
	for i, p := range picks {
		path2[i] = pool2[p]
	}
	if NewCache(0).Key(path2) != cache.Key(path) {
		t.Fatal("batch key depends on the Builder")
	}
}

// setKeyPool returns 1-8 random constraints and the two constants.
func setKeyPool(c chooser, b *expr.Builder) []*expr.Term {
	vars := varPool(b, 4)
	pool := []*expr.Term{b.Bool(true), b.Bool(false)}
	for n := 1 + c.pick(8); n > 0; n-- {
		pool = append(pool, genBool(c, b, vars, 2))
	}
	return pool
}

// recordChooser remembers the picks it passes on, so replayChooser can
// build the same terms again in another Builder.
type recordChooser struct {
	c     chooser
	picks []int
}

func (r *recordChooser) pick(n int) int {
	v := r.c.pick(n)
	r.picks = append(r.picks, v)
	return v
}

type replayChooser struct {
	picks []int
	i     int
}

func (r *replayChooser) pick(int) int {
	v := r.picks[r.i]
	r.i++
	return v
}
