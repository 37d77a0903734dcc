package solver

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"hardsnap/internal/expr"
)

// cacheShards is the number of independently locked result shards.
// Striping by key byte keeps concurrent workers from serializing on
// one mutex when they consult the shared memo table.
const cacheShards = 16

// DefaultCacheCapacity bounds a NewCache(0) cache. Each entry holds a
// 32-byte key plus a small model map, so the default costs well under
// a few MiB even when full.
const DefaultCacheCapacity = 1 << 14

// CacheKey is the canonical digest of a constraint set: the SHA-256
// of its SetKey. Two constraint slices that denote the same set —
// regardless of order, duplicates, constant-true terms, or which
// Builder interned them — map to the same key.
type CacheKey [32]byte

// SetKey is a constraint set's key before its final hash: the
// lane-wise sum (four little-endian uint64 lanes) of the structural
// digests of its distinct, non-constant-true terms, and their count.
// A sum does not depend on order, so a key grows one term at a time
// (Cache.Fold) and a path condition, which only ever grows by
// appends, carries its key instead of rehashing the whole list per
// query. The zero value is the key of the empty set.
type SetKey struct {
	sum [4]uint64
	n   uint64
}

// Sum returns the CacheKey of the set: the SHA-256 of the 40 bytes of
// lanes and count.
func (k SetKey) Sum() CacheKey {
	var b [40]byte
	for i, v := range k.sum {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	binary.LittleEndian.PutUint64(b[32:], k.n)
	return sha256.Sum256(b[:])
}

func (k *SetKey) add(d *[32]byte) {
	for i := range k.sum {
		k.sum[i] += binary.LittleEndian.Uint64(d[8*i:])
	}
	k.n++
}

// Cache memoizes satisfiability verdicts (and models for Sat) across
// solvers. Sibling states forked from the same branch re-issue
// identical feasibility queries; with a shared Cache each such query
// is paid once per exploration run instead of once per state. All
// methods are safe for concurrent use.
//
// A query's key is its SetKey's Sum: a caller that carries the SetKey
// of a growing constraint list (a symbolic path does) pays one term
// digest per new constraint and one 40-byte hash per query, however
// long the list. Models are shared, never copied: Store keeps the map
// it is given and Lookup returns it, so neither side may mutate it
// afterwards (the hardsnapaudit build checks this on every hit).
//
// A cache lives in one process: the workers of a run share it, and a
// dist node keeps its own. Sharing cannot change results because a
// verdict is a pure function of its key (the solver is deterministic)
// and query budgets count hits as queries, so a hit changes only when
// a verdict is known, never what it is.
type Cache struct {
	capacity int
	shards   [cacheShards]cacheShard

	// digests memoizes per-term structural digests. Terms are
	// immutable and interned, so a pointer key is stable; racing
	// computations produce identical values.
	digests sync.Map // map[*expr.Term][32]byte

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[CacheKey]cacheEntry
	order   []CacheKey // insertion order, for FIFO eviction
}

type cacheEntry struct {
	res   Result
	model expr.Assignment
	// digest is modelDigest(model), so that an audit build can tell
	// on a hit that a caller mutated the shared model.
	digest uint64
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewCache returns a Cache bounded to roughly capacity entries
// (DefaultCacheCapacity if capacity <= 0). Eviction is FIFO per shard.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	c := &Cache{capacity: capacity}
	for i := range c.shards {
		c.shards[i].entries = make(map[CacheKey]cacheEntry)
	}
	return c
}

// Stats returns a consistent-enough snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	var entries int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// Key computes the canonical digest for a constraint set: terms are
// deduplicated by digest and constant-true terms are dropped, so
// adding a vacuous or repeated constraint does not split the cache
// line for an otherwise identical set. It is the key that folding the
// set's distinct terms into a zero SetKey gives.
func (c *Cache) Key(constraints []*expr.Term) CacheKey {
	return c.set(constraints).Sum()
}

// set returns the SetKey of constraints, deduplicated by digest.
func (c *Cache) set(constraints []*expr.Term) SetKey {
	ds := make([][32]byte, 0, len(constraints))
	for _, t := range constraints {
		if v, ok := t.Const(); ok && v != 0 {
			continue
		}
		ds = append(ds, c.termDigest(t))
	}
	slices.SortFunc(ds, func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) })
	var k SetKey
	for i := range ds {
		if i == 0 || ds[i] != ds[i-1] {
			k.add(&ds[i])
		}
	}
	return k
}

// Fold adds t to the set k is the key of, unless t is constant true.
// The caller must know that t is not in the set yet: a fold does not
// deduplicate, and a term folded twice yields a key no set has. Within
// one Builder a pointer scan of the earlier terms is an exact test,
// since interning makes pointer equality structural equality.
func (c *Cache) Fold(k *SetKey, t *expr.Term) {
	if v, ok := t.Const(); ok && v != 0 {
		return
	}
	d := c.termDigest(t)
	k.add(&d)
}

// termDigest returns the structural SHA-256 of t, memoized per term.
func (c *Cache) termDigest(t *expr.Term) [32]byte {
	if d, ok := c.digests.Load(t); ok {
		return d.([32]byte)
	}
	buf := make([]byte, 0, 64)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	put(uint64(t.Op()))
	put(uint64(t.Width()))
	put(uint64(t.ExtractLow()))
	if v, ok := t.Const(); ok {
		put(v)
	}
	if name := t.Name(); name != "" {
		buf = append(buf, name...)
		buf = append(buf, 0)
	}
	for _, a := range t.Args() {
		d := c.termDigest(a)
		buf = append(buf, d[:]...)
	}
	d := sha256.Sum256(buf)
	c.digests.Store(t, d)
	return d
}

// Lookup returns the memoized verdict for key, if any. A Sat hit
// returns the stored model itself, not a copy: stored models are
// immutable, and every caller treats a model as read-only.
func (c *Cache) Lookup(key CacheKey) (Result, expr.Assignment, bool) {
	s := &c.shards[int(key[0])%cacheShards]
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return 0, nil, false
	}
	c.hits.Add(1)
	if modelDigest(e.model) != e.digest {
		panic("solver: a cached model was mutated after it was stored")
	}
	return e.res, e.model, true
}

// Store memoizes a verdict. The cache keeps model itself: neither the
// caller nor any later reader may mutate it.
func (c *Cache) Store(key CacheKey, res Result, model expr.Assignment) {
	e := cacheEntry{res: res, model: model, digest: modelDigest(model)}
	s := &c.shards[int(key[0])%cacheShards]
	perShard := c.capacity / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	s.mu.Lock()
	if _, ok := s.entries[key]; ok {
		s.mu.Unlock()
		return
	}
	for len(s.entries) >= perShard && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		if _, ok := s.entries[victim]; ok {
			delete(s.entries, victim)
			c.evictions.Add(1)
		}
	}
	s.entries[key] = e
	s.order = append(s.order, key)
	s.mu.Unlock()
}

var auditSeed = maphash.MakeSeed()

// modelDigest is an order-independent digest of m's names and values
// in a hardsnapaudit build, and 0 otherwise.
func modelDigest(m expr.Assignment) uint64 {
	if !auditBuild {
		return 0
	}
	d := uint64(len(m))
	for name, v := range m {
		h := maphash.String(auditSeed, name)
		d += (h^v)*0x9E3779B97F4A7C15 + h
	}
	return d
}
