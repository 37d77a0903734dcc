package solver

import (
	"bytes"
	"crypto/sha256"
	"sort"
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

// CacheKey is the canonical digest of a path-condition set: the
// SHA-256 of the sorted, deduplicated structural digests of the
// constraint terms (constant-true terms removed). Two constraint
// slices that denote the same set — regardless of order, duplicates,
// or which Builder interned them — map to the same key.
type CacheKey [32]byte

// Cache memoizes satisfiability verdicts (and models for Sat) across
// solvers. Sibling states forked from the same branch re-issue
// identical feasibility queries; with a shared Cache each such query
// is paid once per exploration run instead of once per state. All
// methods are safe for concurrent use.
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
	stores    atomic.Int64
	imported  atomic.Int64

	// logMu guards the fabric changelog of locally discovered entries
	// (see wire.go).
	logMu sync.Mutex
	log   []WireEntry
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[CacheKey]cacheEntry
	order   []CacheKey // insertion order, for FIFO eviction
}

type cacheEntry struct {
	res   Result
	model expr.Assignment
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int64
	// Imported counts entries adopted from the distributed fabric
	// (zero outside distributed runs); Published counts locally
	// discovered entries available to the fabric changelog.
	Imported  int64
	Published int64
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
	c.logMu.Lock()
	published := int64(len(c.log))
	c.logMu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Imported:  c.imported.Load(),
		Published: published,
	}
}

// Key computes the canonical digest for a constraint set.
// Constant-true terms are dropped so that adding a vacuous constraint
// does not split the cache line for an otherwise identical set.
func (c *Cache) Key(constraints []*expr.Term) CacheKey {
	ds := make([][32]byte, 0, len(constraints))
	for _, t := range constraints {
		if v, ok := t.Const(); ok && v != 0 {
			continue
		}
		ds = append(ds, c.termDigest(t))
	}
	sort.Slice(ds, func(i, j int) bool {
		return bytes.Compare(ds[i][:], ds[j][:]) < 0
	})
	h := sha256.New()
	var prev [32]byte
	for i, d := range ds {
		if i > 0 && d == prev {
			continue
		}
		h.Write(d[:])
		prev = d
	}
	var k CacheKey
	copy(k[:], h.Sum(nil))
	return k
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

// Lookup returns the memoized verdict for key, if any. Sat hits return
// a fresh copy of the stored model so callers may keep it without
// aliasing the cache.
func (c *Cache) Lookup(key CacheKey) (Result, expr.Assignment, bool) {
	s := &c.shards[int(key[0])%cacheShards]
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return Unknown, nil, false
	}
	c.hits.Add(1)
	var model expr.Assignment
	if e.model != nil {
		model = make(expr.Assignment, len(e.model))
		for k, v := range e.model {
			model[k] = v
		}
	}
	return e.res, model, true
}

// Store memoizes a definite verdict. Unknown (budget-exhausted)
// results are never cached: a later query with a larger budget must be
// allowed to try again. The model is copied on the way in. Locally
// stored entries enter the fabric changelog (wire.go); use Import for
// entries that arrived from the fabric.
func (c *Cache) Store(key CacheKey, res Result, model expr.Assignment) {
	c.store(key, res, model, true)
}

// store inserts an entry, returning whether it was newly inserted.
// logIt routes locally discovered entries into the fabric changelog.
func (c *Cache) store(key CacheKey, res Result, model expr.Assignment, logIt bool) bool {
	if res != Sat && res != Unsat {
		return false
	}
	var stored expr.Assignment
	if model != nil {
		stored = make(expr.Assignment, len(model))
		for k, v := range model {
			stored[k] = v
		}
	}
	s := &c.shards[int(key[0])%cacheShards]
	perShard := c.capacity / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	s.mu.Lock()
	if _, ok := s.entries[key]; ok {
		s.mu.Unlock()
		return false
	}
	for len(s.entries) >= perShard && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		if _, ok := s.entries[victim]; ok {
			delete(s.entries, victim)
			c.evictions.Add(1)
		}
	}
	s.entries[key] = cacheEntry{res: res, model: stored}
	s.order = append(s.order, key)
	s.mu.Unlock()
	c.stores.Add(1)
	if logIt {
		c.logEntry(key, res, stored)
	}
	return true
}
