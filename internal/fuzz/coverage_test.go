package fuzz

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hardsnap/internal/testseed"
)

func TestBitmapEdgeAndReset(t *testing.T) {
	var b Bitmap
	b.Edge(0x100)
	b.Edge(0x104)
	b.Edge(0x100) // different edge: 0x104 -> 0x100
	if b.n == 0 {
		t.Fatal("no edges recorded")
	}
	sig := b.Signature()
	if sig == fnvOffset {
		t.Fatal("signature of non-empty bitmap is the empty hash")
	}
	b.Reset()
	for i := range b.hits {
		if b.hits[i] != 0 {
			t.Fatalf("hits[%d]=%d after Reset", i, b.hits[i])
		}
	}
	if got := b.Signature(); got != fnvOffset {
		t.Fatalf("signature after reset: %#x", got)
	}
}

func TestBitmapSignatureDeterministic(t *testing.T) {
	run := func() uint64 {
		var b Bitmap
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 5000; i++ {
			b.Edge(uint32(rng.Intn(2048)) * 4)
		}
		return b.Signature()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("signatures differ: %#x vs %#x", a, b)
	}
}

func TestBitmapOrderIndependentSignature(t *testing.T) {
	// Same set of transitions visited in a different interleaving of
	// independent chains must reduce to the same (idx, class) set.
	var a, b Bitmap
	a.Edge(0x100)
	a.Edge(0x104)
	a.Reset()
	// Rebuild identically; signature must match what a just produced.
	a.Edge(0x100)
	a.Edge(0x104)
	b.Edge(0x100)
	b.Edge(0x104)
	if a.Signature() != b.Signature() {
		t.Fatal("identical paths produced different signatures")
	}
}

func TestBitmapSaturation(t *testing.T) {
	var b Bitmap
	for i := 0; i < 1000; i++ {
		b.prev = 0 // pin the chain so the same slot is hit
		b.Edge(0x100)
	}
	// The slot must have saturated at 255, not wrapped to 0.
	found := false
	for _, h := range b.hits {
		if h == 255 {
			found = true
		}
		if h != 0 && h != 255 {
			t.Fatalf("unexpected count %d", h)
		}
	}
	if !found {
		t.Fatal("hot edge lost to counter wraparound")
	}
}

func TestBitmapOverflowFallback(t *testing.T) {
	var b Bitmap
	// Touch more distinct slots than the touched list holds.
	for i := 0; i < touchedCap+500; i++ {
		b.Edge(uint32(i) * 4)
	}
	if !b.overflow {
		t.Skip("synthetic walk did not overflow (hash collisions)")
	}
	sig := b.Signature()
	var g Global
	if !g.Merge(&b) {
		t.Fatal("merge of fresh bitmap found nothing new")
	}
	if g.Edges() == 0 {
		t.Fatal("no edges counted through overflow path")
	}
	b.Reset()
	if b.Signature() != fnvOffset {
		t.Fatal("reset after overflow left residue")
	}
	_ = sig
}

func TestGlobalMergeBuckets(t *testing.T) {
	var g Global
	var b Bitmap

	b.Edge(0x200)
	if newBits := g.Merge(&b); !newBits || g.Edges() != 1 {
		t.Fatalf("first merge: newBits=%v edges=%d", newBits, g.Edges())
	}

	// Same single hit again: nothing new.
	b.Reset()
	b.Edge(0x200)
	if newBits := g.Merge(&b); newBits || g.Edges() != 1 {
		t.Fatalf("identical merge: newBits=%v edges=%d", newBits, g.Edges())
	}

	// Same edge executed twice: same slot, new hit-count bucket.
	var d Bitmap
	d.Edge(0x200)
	d.hits[d.touched[0]] = 2 // bucket class 2 instead of 1
	if !g.Merge(&d) {
		t.Fatal("new hit-count bucket not detected")
	}
	if g.Edges() != 1 {
		t.Fatalf("edges=%d, want 1: bucket change misreported as new edge", g.Edges())
	}
}

func TestClassLUT(t *testing.T) {
	cases := map[int]uint8{
		0: 0, 1: 1, 2: 2, 3: 4, 4: 8, 7: 8, 8: 16, 15: 16,
		16: 32, 31: 32, 32: 64, 127: 64, 128: 128, 255: 128,
	}
	for in, want := range cases {
		if got := classLUT[in]; got != want {
			t.Fatalf("classLUT[%d] = %d, want %d", in, got, want)
		}
	}
}

// synthetic PC walk shared by the coverage benchmarks: a loop-heavy
// path over 512 blocks, the shape a firmware exec produces.
func walkPCs(n int) []uint32 {
	rng := rand.New(rand.NewSource(1))
	pcs := make([]uint32, n)
	pc := uint32(0x100)
	for i := range pcs {
		switch rng.Intn(8) {
		case 0:
			pc = uint32(rng.Intn(512)) * 4 // jump
		default:
			pc += 4
			if pc >= 512*4 {
				pc = 0x100
			}
		}
		pcs[i] = pc
	}
	return pcs
}

// BenchmarkMapCoverage measures the seed fuzzer's per-edge cost: a
// map[uint64]bool keyed on (prevPC, PC), rebuilt per exec the way the
// old hot loop paid for it.
func BenchmarkMapCoverage(b *testing.B) {
	pcs := walkPCs(2000)
	edges := make(map[uint64]bool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := uint32(0)
		for _, pc := range pcs {
			edge := uint64(prev)<<32 | uint64(pc)
			if !edges[edge] {
				edges[edge] = true
			}
			prev = pc
		}
	}
}

// BenchmarkBitmapCoverage measures the rebuilt per-edge cost: the
// AFL-style bitmap with per-exec classify/merge/clear, the complete
// steady-state coverage cycle. Run with -benchmem: the loop is
// allocation-free.
func BenchmarkBitmapCoverage(b *testing.B) {
	pcs := walkPCs(2000)
	var bm Bitmap
	var g Global
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pc := range pcs {
			bm.Edge(pc)
		}
		g.Merge(&bm)
		bm.Reset()
	}
}

// TestSeenMatchesGlobalMerge: a worker that merges only an exec that
// lit a bit beyond its seenMap gets the answers of one that merges
// every exec. One to three workers run interleaved random execs,
// overflowed bitmaps among them, against a shared Global; a reference
// Global merges every exec. After each exec newBits, Edges() and the
// virgin map must match the reference's, and every worker's seenMap
// must stay a subset of the global map.
func TestSeenMatchesGlobalMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g, ref Global
		seen := make([]seenMap, 1+rng.Intn(3))
		var b Bitmap
		for exec := 0; exec < 150; exec++ {
			w := rng.Intn(len(seen))
			b.Reset()
			if rng.Intn(25) == 0 {
				for pc := uint32(0); pc < 4*(touchedCap+500); pc += 4 {
					b.Edge(pc)
				}
			} else {
				// Few blocks and loops, so execs repeat edges and move
				// them between buckets.
				for i, n := 0, rng.Intn(300); i < n; i++ {
					b.Edge(uint32(rng.Intn(64)) * 4)
				}
			}
			want := ref.Merge(&b)
			got := seen[w].merge(&g, &b)
			if got != want || g.Edges() != ref.Edges() || g.virgin != ref.virgin {
				t.Errorf("seed %d exec %d worker %d: newBits %v edges %d, reference %v edges %d (virgin maps equal: %v)",
					seed, exec, w, got, g.Edges(), want, ref.Edges(), g.virgin == ref.virgin)
				return false
			}
			for k := range seen {
				for i, s := range seen[k] {
					if s&^g.virgin[i] != 0 {
						t.Errorf("seed %d exec %d: worker %d's seenMap[%d] = %#x is not within the global %#x", seed, exec, k, i, s, g.virgin[i])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 20)); err != nil {
		t.Fatal(err)
	}
}
