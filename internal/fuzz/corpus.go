package fuzz

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hardsnap/internal/vm"
)

// Entry is one corpus input with the coverage signature that earned
// its place.
type Entry struct {
	Data []byte
	Sig  uint64
	// Solved marks seeds injected by the concolic feedback loop.
	Solved bool
}

// Corpus is the deduplicated shared input queue. Admission is keyed
// on the execution's coverage signature: two inputs with identical
// bucketed coverage are behaviorally the same test case and only the
// first is kept.
type Corpus struct {
	mu      sync.Mutex
	entries []*Entry
	sigs    map[uint64]bool
}

// NewCorpus builds an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{sigs: make(map[uint64]bool)}
}

// Add admits data under the given coverage signature unless an entry
// with the same signature exists. The data slice is copied.
func (c *Corpus) Add(data []byte, sig uint64, solved bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sigs[sig] {
		return false
	}
	c.sigs[sig] = true
	c.entries = append(c.entries, &Entry{
		Data:   append([]byte(nil), data...),
		Sig:    sig,
		Solved: solved,
	})
	return true
}

// Len returns the number of entries.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// PickInto copies a random entry (chosen with rng) into dst without
// allocating, returning the number of bytes copied. An empty corpus
// returns 0, leaving dst untouched.
func (c *Corpus) PickInto(rng *rand.Rand, dst []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 {
		return 0
	}
	return copy(dst, c.entries[rng.Intn(len(c.entries))].Data)
}

// Entries returns a snapshot of the entry list.
func (c *Corpus) Entries() []*Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Entry, len(c.entries))
	copy(out, c.entries)
	return out
}

// CrashKey buckets crashing inputs: two crashes at the same PC with
// the same stop reason are the same bug for reporting purposes.
type CrashKey struct {
	PC   uint32
	Stop vm.StopReason
}

// crashBook collects deduplicated crashes and applies suppressions.
type crashBook struct {
	mu         sync.Mutex
	buckets    map[CrashKey]*Crash
	suppress   map[CrashKey]bool
	suppressed int
}

func newCrashBook(suppress map[CrashKey]bool) *crashBook {
	if suppress == nil {
		suppress = make(map[CrashKey]bool)
	}
	return &crashBook{buckets: make(map[CrashKey]*Crash), suppress: suppress}
}

// record notes one crash occurrence; first reports whether this is
// the first (non-suppressed) sighting of its bucket.
func (cb *crashBook) record(input []byte, stop vm.StopReason, pc uint32, exec int) (first bool) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	key := CrashKey{PC: pc, Stop: stop}
	if cb.suppress[key] {
		cb.suppressed++
		return false
	}
	if c, ok := cb.buckets[key]; ok {
		c.Count++
		return false
	}
	cb.buckets[key] = &Crash{
		Input: append([]byte(nil), input...),
		Stop:  stop,
		PC:    pc,
		Exec:  exec,
		Count: 1,
	}
	return true
}

// suppressedCount returns how many crash occurrences were muted.
func (cb *crashBook) suppressedCount() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.suppressed
}

// bucketCount returns the number of distinct crash buckets.
func (cb *crashBook) bucketCount() int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return len(cb.buckets)
}

// crashes returns the buckets ordered by first-sighting exec index
// (ties broken by PC for determinism across map iteration).
func (cb *crashBook) crashes() []Crash {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	out := make([]Crash, 0, len(cb.buckets))
	for _, c := range cb.buckets {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exec != out[j].Exec {
			return out[i].Exec < out[j].Exec
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// Persistent corpus layout under Config.CorpusDir:
//
//	queue/<sig>.bin          corpus inputs, named by coverage signature
//	crashers/<pc>_<stop>.bin representative input per crash bucket
//	suppressions.txt         one "pc stop" pair per line; crash buckets
//	                         listed here are counted but not reported
const (
	queueDir      = "queue"
	crashersDir   = "crashers"
	suppressFile  = "suppressions.txt"
	corpusFileExt = ".bin"
)

// SaveCorpusDir persists the corpus queue and crash buckets.
func SaveCorpusDir(dir string, entries []*Entry, crashes []Crash) error {
	if err := os.MkdirAll(filepath.Join(dir, queueDir), 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, crashersDir), 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		name := fmt.Sprintf("%016x%s", e.Sig, corpusFileExt)
		if err := os.WriteFile(filepath.Join(dir, queueDir, name), e.Data, 0o644); err != nil {
			return err
		}
	}
	for _, c := range crashes {
		name := fmt.Sprintf("%08x_%d%s", c.PC, int(c.Stop), corpusFileExt)
		if err := os.WriteFile(filepath.Join(dir, crashersDir, name), c.Input, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadCorpusDir reads persisted queue inputs (returned as seeds) and
// the suppression list. A missing directory is an empty corpus, not
// an error, so first runs need no setup.
func LoadCorpusDir(dir string) (seeds [][]byte, suppress map[CrashKey]bool, err error) {
	suppress = make(map[CrashKey]bool)
	files, err := os.ReadDir(filepath.Join(dir, queueDir))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	// Sort for a deterministic seed order independent of readdir order.
	sort.Slice(files, func(i, j int) bool { return files[i].Name() < files[j].Name() })
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), corpusFileExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, queueDir, f.Name()))
		if err != nil {
			return nil, nil, err
		}
		seeds = append(seeds, data)
	}
	raw, err := os.ReadFile(filepath.Join(dir, suppressFile))
	if err != nil {
		if os.IsNotExist(err) {
			return seeds, suppress, nil
		}
		return nil, nil, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, nil, fmt.Errorf("fuzz: bad suppression line %q", line)
		}
		pc, err := strconv.ParseUint(strings.TrimPrefix(fields[0], "0x"), 16, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("fuzz: bad suppression pc %q: %v", fields[0], err)
		}
		stop, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, nil, fmt.Errorf("fuzz: bad suppression stop %q: %v", fields[1], err)
		}
		suppress[CrashKey{PC: uint32(pc), Stop: vm.StopReason(stop)}] = true
	}
	return seeds, suppress, nil
}
