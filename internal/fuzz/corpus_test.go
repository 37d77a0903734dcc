package fuzz

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"hardsnap/internal/testseed"
	"hardsnap/internal/vm"
)

func TestCorpusDedupBySignature(t *testing.T) {
	c := NewCorpus()
	if !c.Add([]byte{1, 2}, 0xAB, nil, false) {
		t.Fatal("first add rejected")
	}
	if c.Add([]byte{3, 4}, 0xAB, nil, false) {
		t.Fatal("duplicate signature admitted")
	}
	if !c.Add([]byte{3, 4}, 0xCD, nil, false) {
		t.Fatal("new signature rejected")
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d", c.Len())
	}
}

func TestCorpusPickIntoNoAlloc(t *testing.T) {
	c := NewCorpus()
	c.Add([]byte{1, 2, 3, 4}, 1, nil, false)
	rng := rand.New(rand.NewSource(1))
	dst := make([]byte, 4)
	allocs := testing.AllocsPerRun(100, func() {
		c.PickInto(rng, dst)
	})
	if allocs != 0 {
		t.Fatalf("PickInto allocates %.1f/op", allocs)
	}
}

func TestCorpusPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := []*Entry{
		{Data: []byte{0xDE, 0xAD}, Sig: 0x1111, Pairs: []CovPair{{Idx: 5, Cls: 1}}},
		{Data: []byte{0xBE, 0xEF}, Sig: 0x2222, Pairs: []CovPair{{Idx: 9, Cls: 2}}},
	}
	crashes := []Crash{
		{Input: []byte{0xA5, 0x00}, Stop: vm.StopAbort, PC: 0x140, Exec: 3, Count: 2},
	}
	if err := SaveCorpusDir(dir, entries, crashes); err != nil {
		t.Fatal(err)
	}

	seeds, suppress, err := LoadCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 2 {
		t.Fatalf("loaded %d seeds, want 2", len(seeds))
	}
	// Queue files are named by signature, so load order is sig order.
	if string(seeds[0]) != "\xde\xad" || string(seeds[1]) != "\xbe\xef" {
		t.Fatalf("seeds %x", seeds)
	}
	if len(suppress) != 0 {
		t.Fatalf("unexpected suppressions %v", suppress)
	}

	// Crasher file exists with the representative input.
	data, err := os.ReadFile(filepath.Join(dir, crashersDir, "00000140_2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "\xa5\x00" {
		t.Fatalf("crasher bytes %x", data)
	}
}

func TestSuppressionsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	content := "# known-bad bucket\n0x140 2\n00000208 4\n"
	if err := os.WriteFile(filepath.Join(dir, suppressFile), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, suppress, err := LoadCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !suppress[CrashKey{PC: 0x140, Stop: vm.StopAbort}] {
		t.Fatal("0x140 abort not suppressed")
	}
	if !suppress[CrashKey{PC: 0x208, Stop: vm.StopFault}] {
		t.Fatal("0x208 fault not suppressed")
	}

	cb := newCrashBook(suppress)
	if cb.record([]byte{1}, vm.StopAbort, 0x140, 0) {
		t.Fatal("suppressed crash reported as first sighting")
	}
	if cb.suppressedCount() != 1 {
		t.Fatalf("suppressed=%d", cb.suppressedCount())
	}
	if cb.bucketCount() != 0 {
		t.Fatalf("buckets=%d", cb.bucketCount())
	}
	if !cb.record([]byte{1}, vm.StopAbort, 0x144, 1) {
		t.Fatal("unsuppressed crash not reported")
	}
}

func TestCrashBookDedup(t *testing.T) {
	cb := newCrashBook(nil)
	if !cb.record([]byte{1}, vm.StopAbort, 0x100, 0) {
		t.Fatal("first crash not first")
	}
	if cb.record([]byte{2}, vm.StopAbort, 0x100, 1) {
		t.Fatal("same bucket reported twice")
	}
	if !cb.record([]byte{3}, vm.StopFault, 0x100, 2) {
		t.Fatal("different stop reason is a different bucket")
	}
	crashes := cb.crashes()
	if len(crashes) != 2 {
		t.Fatalf("%d buckets", len(crashes))
	}
	if crashes[0].Count != 2 || crashes[0].Input[0] != 1 {
		t.Fatalf("first bucket %+v", crashes[0])
	}
}

// randomEntries derives a corpus from a quick-check seed: a handful
// of entries with random coverage pairs drawn from a small index
// space so entries overlap (the interesting minimization case).
func randomEntries(seed int64) []*Entry {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(20)
	entries := make([]*Entry, n)
	for i := range entries {
		np := 1 + rng.Intn(12)
		pairs := make([]CovPair, 0, np)
		for j := 0; j < np; j++ {
			pairs = append(pairs, CovPair{
				Idx: uint32(rng.Intn(64)),
				Cls: 1 << uint(rng.Intn(8)),
			})
		}
		entries[i] = &Entry{Data: []byte{byte(i)}, Sig: uint64(i), Pairs: pairs}
	}
	return entries
}

// TestMinimizePreservesUnionSignature is the satellite property: at
// any seed, the greedily minimized corpus covers exactly the same
// (edge, bucket-bit) union as the full corpus.
func TestMinimizePreservesUnionSignature(t *testing.T) {
	prop := func(seed int64) bool {
		entries := randomEntries(seed)
		min := Minimize(entries)
		if len(min) > len(entries) {
			return false
		}
		return UnionSignature(min) == UnionSignature(entries)
	}
	if err := quick.Check(prop, testseed.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeDropsRedundantEntries(t *testing.T) {
	entries := []*Entry{
		{Data: []byte{0}, Pairs: []CovPair{{Idx: 1, Cls: 1}}},
		{Data: []byte{1}, Pairs: []CovPair{{Idx: 1, Cls: 1}}}, // redundant
		{Data: []byte{2}, Pairs: []CovPair{{Idx: 1, Cls: 1}, {Idx: 2, Cls: 1}}},
	}
	min := Minimize(entries)
	if len(min) != 1 {
		t.Fatalf("minimized to %d entries, want 1", len(min))
	}
	if min[0].Data[0] != 2 {
		t.Fatal("greedy pick should take the superset entry")
	}
}

// TestCampaignCorpusPersistence drives the full Run path through a
// corpus directory twice: the second campaign must load the first's
// queue as seeds and start from its coverage.
func TestCampaignCorpusPersistence(t *testing.T) {
	dir := t.TempDir()
	prog := assemble(t, crashFirmware)
	cfg := Config{
		Program:   prog,
		Reset:     ResetSnapshot,
		MaxExecs:  300,
		InputLen:  4,
		Seeds:     [][]byte{[]byte("Hx__")},
		Seed:      7,
		CorpusDir: dir,
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Corpus < 2 {
		t.Fatalf("first campaign corpus=%d", first.Corpus)
	}
	files, err := os.ReadDir(filepath.Join(dir, queueDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != first.Corpus {
		t.Fatalf("persisted %d queue files for corpus of %d", len(files), first.Corpus)
	}

	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Corpus < first.Corpus {
		t.Fatalf("reloaded campaign lost corpus: %d < %d", second.Corpus, first.Corpus)
	}
}
