package fuzz

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hardsnap/internal/vm"
)

func TestCorpusDedupBySignature(t *testing.T) {
	c := NewCorpus()
	if !c.Add([]byte{1, 2}, 0xAB, false) {
		t.Fatal("first add rejected")
	}
	if c.Add([]byte{3, 4}, 0xAB, false) {
		t.Fatal("duplicate signature admitted")
	}
	if !c.Add([]byte{3, 4}, 0xCD, false) {
		t.Fatal("new signature rejected")
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d", c.Len())
	}
}

func TestCorpusPickIntoNoAlloc(t *testing.T) {
	c := NewCorpus()
	c.Add([]byte{1, 2, 3, 4}, 1, false)
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
		{Data: []byte{0xDE, 0xAD}, Sig: 0x1111},
		{Data: []byte{0xBE, 0xEF}, Sig: 0x2222},
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
