package fuzz

import (
	"slices"
	"sync"
)

// MapSize is the edge-coverage bitmap size (AFL's classic 64 KiB: big
// enough that firmware-scale programs see few hash collisions, small
// enough to clear and merge in microseconds).
const MapSize = 1 << 16

const mapMask = MapSize - 1

// touchedCap bounds the per-exec touched-index list. An execution
// that touches more distinct edges than this falls back to a full
// bitmap scan; firmware test cases are typically a few hundred edges,
// so the overflow path exists for correctness, not speed.
const touchedCap = 4096

// classLUT maps a raw hit counter to its AFL bucket bit: 1, 2, 3,
// 4-7, 8-15, 16-31, 32-127, 128+ hits become bits 0..7. Bucketing
// turns "loop ran 100 times instead of 99" into "same behavior" while
// keeping "ran once" vs "ran many times" distinct.
var classLUT [256]uint8

func init() {
	for i := range classLUT {
		switch {
		case i == 0:
			classLUT[i] = 0
		case i == 1:
			classLUT[i] = 1 << 0
		case i == 2:
			classLUT[i] = 1 << 1
		case i == 3:
			classLUT[i] = 1 << 2
		case i <= 7:
			classLUT[i] = 1 << 3
		case i <= 15:
			classLUT[i] = 1 << 4
		case i <= 31:
			classLUT[i] = 1 << 5
		case i <= 127:
			classLUT[i] = 1 << 6
		default:
			classLUT[i] = 1 << 7
		}
	}
}

// Bitmap is one worker's per-execution edge-coverage map. Edge is the
// only method on the hot path: everything else runs once per exec.
// The struct embeds its arrays so a worker's bitmap is a single
// allocation at setup and zero allocations afterward.
type Bitmap struct {
	hits     [MapSize]uint8
	touched  [touchedCap]uint32
	n        int
	overflow bool
	prev     uint32
	sorted   bool
}

// hashPC spreads a (word-aligned) PC over the map, mimicking AFL's
// random per-block location with a multiplicative hash.
func hashPC(pc uint32) uint32 {
	return (pc >> 2) * 0x9E3779B1
}

// Edge records the transition into pc. The index is the XOR of this
// block's hash with the shifted previous one, so A->B and B->A count
// as different edges (AFL's classic trick).
func (b *Bitmap) Edge(pc uint32) {
	cur := hashPC(pc) & mapMask
	idx := cur ^ b.prev
	b.prev = cur >> 1
	h := b.hits[idx]
	if h == 0 {
		if b.n < touchedCap {
			b.touched[b.n] = idx
			b.n++
		} else {
			b.overflow = true
		}
	}
	if h != 255 { // saturate: 255 wrapping to 0 would lose the edge
		b.hits[idx]++
	}
}

// Reset clears the bitmap for the next execution, touching only the
// entries the last execution set (O(edges), not O(64 KiB)) unless the
// touched list overflowed.
func (b *Bitmap) Reset() {
	if b.overflow {
		clear(b.hits[:])
	} else {
		for i := 0; i < b.n; i++ {
			b.hits[b.touched[i]] = 0
		}
	}
	b.n = 0
	b.overflow = false
	b.prev = 0
	b.sorted = false
}

// forEach visits every set entry as (index, bucket-class) in
// ascending index order. It sorts the touched list in place on first
// use after an execution (allocation-free), or scans the whole map on
// overflow.
func (b *Bitmap) forEach(fn func(idx uint32, cls uint8)) {
	if b.overflow {
		for i := range b.hits {
			if h := b.hits[i]; h != 0 {
				fn(uint32(i), classLUT[h])
			}
		}
		return
	}
	if !b.sorted {
		slices.Sort(b.touched[:b.n])
		b.sorted = true
	}
	for i := 0; i < b.n; i++ {
		idx := b.touched[i]
		fn(idx, classLUT[b.hits[idx]])
	}
}

// fnv accumulates one (idx, cls) pair into an FNV-1a hash.
func fnvPair(h uint64, idx uint32, cls uint8) uint64 {
	const prime = 1099511628211
	h ^= uint64(idx)
	h *= prime
	h ^= uint64(cls)
	h *= prime
	return h
}

const fnvOffset = 14695981039346656037

// Signature digests the execution's coverage as an FNV-1a hash over
// the sorted (edge index, bucket class) pairs: two executions with
// identical bucketed coverage produce identical signatures, which is
// the corpus dedup key. It sorts the touched list, so the fuzz loop
// asks for it only for an input it admits.
func (b *Bitmap) Signature() uint64 {
	h := uint64(fnvOffset)
	b.forEach(func(idx uint32, cls uint8) {
		h = fnvPair(h, idx, cls)
	})
	return h
}

// Global is the campaign-wide virgin map shared by all workers: each
// entry accumulates the bucket-class bits ever observed for that
// edge. Merging a worker's per-exec bitmap reports whether the
// execution lit any new bit (the corpus admission signal). One lock
// covers the map and its edge count: a worker does not merge every
// exec, it first checks the exec against its own seenMap without a
// lock, and merges only one that lit a bit the seenMap lacks.
type Global struct {
	mu     sync.Mutex
	virgin [MapSize]uint8
	edges  int
}

// Merge folds one execution's bitmap into the global map and reports
// whether it lit any new (edge, bucket) bit.
func (g *Global) Merge(b *Bitmap) (newBits bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b.forEach(func(idx uint32, cls uint8) {
		old := g.virgin[idx]
		if old|cls != old {
			newBits = true
			if old == 0 {
				g.edges++
			}
			g.virgin[idx] = old | cls
		}
	})
	return newBits
}

// Edges returns the number of distinct edge slots observed so far.
func (g *Global) Edges() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.edges
}

// seenMap is one worker's private copy of bits it knows the global map
// holds: each entry is a subset of the same Global.virgin entry, since
// a bit enters it only after a Merge put it there (AFL's virgin-map
// check, kept per worker so that it needs no lock).
type seenMap [MapSize]uint8

// merge returns what g.Merge(b) returns, taking the global lock only
// when b lit a bit s lacks: an exec that lit none lit none new to g
// either, since s is a subset of g. On news it calls Merge, which
// stays the authority on new bits and the edge count, and adds b's
// bits to s.
func (s *seenMap) merge(g *Global, b *Bitmap) (newBits bool) {
	if !b.litBeyond(s) {
		return false
	}
	newBits = g.Merge(b)
	b.forEach(func(idx uint32, cls uint8) { s[idx] |= cls })
	return newBits
}

// litBeyond reports whether the execution lit any (edge, bucket) bit
// that s lacks. It walks the touched list unsorted, or the whole map on
// overflow.
func (b *Bitmap) litBeyond(s *seenMap) bool {
	if b.overflow {
		for i, h := range b.hits {
			if classLUT[h]&^s[i] != 0 {
				return true
			}
		}
		return false
	}
	for _, idx := range b.touched[:b.n] {
		if classLUT[b.hits[idx]]&^s[idx] != 0 {
			return true
		}
	}
	return false
}
