package fuzz

import (
	"testing"

	"hardsnap/internal/target"
	"hardsnap/internal/vm"
)

// magicFirmware guards the bug behind a 32-bit magic word — a 2^32
// search space that mutation alone cannot realistically cross, but
// one flip query solves exactly.
const magicFirmware = `
_start:
		addi r10, r0, 20
init:
		addi r10, r10, -1
		bne r10, r0, init
		ecall 6
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lw r4, 0(r1)
		li r5, 0x4D416743      ; magic word
		bne r4, r5, ok
		abort
ok:
		halt
`

func TestHybridSolvesMagicGuard(t *testing.T) {
	prog := assemble(t, magicFirmware)
	res, err := Run(Config{
		Program:  prog,
		Reset:    ResetSnapshot,
		MaxExecs: 500,
		InputLen: 4,
		Seed:     11,
		Hybrid:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConcolicRuns == 0 {
		t.Fatal("hybrid mode never escalated a frontier branch")
	}
	if res.SolvedSeeds == 0 {
		t.Fatal("no solver model injected")
	}
	if len(res.Crashes) == 0 {
		t.Fatalf("magic guard not crossed in %d execs (%d concolic runs, %d solved)",
			res.Execs, res.ConcolicRuns, res.SolvedSeeds)
	}
	c := res.Crashes[0]
	if c.Stop != vm.StopAbort {
		t.Fatalf("crash kind %v", c.Stop)
	}
	word := uint32(c.Input[0]) | uint32(c.Input[1])<<8 | uint32(c.Input[2])<<16 | uint32(c.Input[3])<<24
	if word != 0x4D416743 {
		t.Fatalf("crashing input %x is not the magic word", c.Input)
	}
}

// magicHWFirmware routes the magic word through the CRC peripheral
// before the compare, so the hybrid loop must record and replay MMIO
// traffic to keep the concolic path faithful.
const magicHWFirmware = `
_start:
		li r8, 0x40000000
		addi r4, r0, 1
		sw r4, 8(r8)       ; crc init
		ecall 6
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		sw r4, 0(r8)       ; feed a byte through the peripheral
wait:
		lw r5, 12(r8)
		bne r5, r0, wait
		lw r4, 0(r1)
		li r5, 0x00C0FFEE
		bne r4, r5, ok
		abort
ok:
		halt
`

func TestHybridWithHardwareMMIOReplay(t *testing.T) {
	prog := assemble(t, magicHWFirmware)
	res, err := Run(Config{
		Program:     prog,
		Peripherals: []target.PeriphConfig{{Name: "crc0", Periph: "crc32"}},
		Reset:       ResetSnapshot,
		MaxExecs:    500,
		InputLen:    4,
		Seed:        3,
		Hybrid:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashes) == 0 {
		t.Fatalf("magic guard behind MMIO not crossed (%d concolic runs, %d solved)",
			res.ConcolicRuns, res.SolvedSeeds)
	}
	word := uint32(res.Crashes[0].Input[0]) | uint32(res.Crashes[0].Input[1])<<8 |
		uint32(res.Crashes[0].Input[2])<<16 | uint32(res.Crashes[0].Input[3])<<24
	if word != 0x00C0FFEE {
		t.Fatalf("crashing input %x", res.Crashes[0].Input)
	}
}

func TestFuzzOnlyCannotSolveMagic(t *testing.T) {
	// Control: the same budget without hybrid mode does not cross the
	// 32-bit guard (confirming the hybrid test exercises the solver,
	// not mutation luck).
	prog := assemble(t, magicFirmware)
	res, err := Run(Config{
		Program:  prog,
		Reset:    ResetSnapshot,
		MaxExecs: 500,
		InputLen: 4,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashes) != 0 {
		t.Fatal("mutation crossed a 32-bit magic guard; weaken the control or buy a lottery ticket")
	}
}

func TestParallelWorkersShareCorpusAndCoverage(t *testing.T) {
	prog := assemble(t, crashFirmware)
	res, err := Run(Config{
		Program:  prog,
		Reset:    ResetSnapshot,
		MaxExecs: 2000,
		InputLen: 4,
		Seeds:    [][]byte{[]byte("Hx__")},
		Seed:     7,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 4 {
		t.Fatalf("workers=%d", res.Workers)
	}
	if res.Execs != 2000 {
		t.Fatalf("execs=%d, want 2000 across workers", res.Execs)
	}
	if len(res.Crashes) == 0 {
		t.Fatal("no crash found with 4 workers")
	}
	if res.Edges < 10 {
		t.Fatalf("edges=%d", res.Edges)
	}
	// Makespan throughput: 4 workers splitting the execs should beat a
	// single worker's virtual time substantially.
	single, err := Run(Config{
		Program:  prog,
		Reset:    ResetSnapshot,
		MaxExecs: 2000,
		InputLen: 4,
		Seeds:    [][]byte{[]byte("Hx__")},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtTime >= single.VirtTime {
		t.Fatalf("4 workers (%v) not faster than 1 (%v)", res.VirtTime, single.VirtTime)
	}
	if res.ExecsPerVirtSecond < 2*single.ExecsPerVirtSecond {
		t.Fatalf("parallel speedup too small: %.0f vs %.0f execs/vsec",
			res.ExecsPerVirtSecond, single.ExecsPerVirtSecond)
	}
}

func TestParallelWorkersWithHardware(t *testing.T) {
	prog := assemble(t, hwFirmware)
	res, err := Run(Config{
		Program:     prog,
		Peripherals: []target.PeriphConfig{{Name: "crc0", Periph: "crc32"}},
		Reset:       ResetSnapshot,
		MaxExecs:    400,
		InputLen:    2,
		Seeds:       [][]byte{{0xA4, 0x00}},
		Seed:        3,
		Workers:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Execs != 400 {
		t.Fatalf("execs=%d", res.Execs)
	}
	if len(res.Crashes) == 0 {
		t.Fatal("no crash with parallel hardware workers")
	}
	if res.DeltaRestores == 0 {
		t.Fatal("parallel workers never used the delta-restore path")
	}
}

// referenceCrashSet is the deduplicated (PC, Stop) bucket set the
// original map-based fuzzer (fuzz.RunReference, since deleted) found
// on crashFirmware at Seed 7, 4 000 execs, InputLen 4 and seed input
// "Hx__": its 240 crash reports all landed on the abort at 0x3c.
var referenceCrashSet = map[CrashKey]bool{
	{PC: 0x3c, Stop: vm.StopAbort}: true,
}

// TestSingleWorkerMatchesReferenceCrashSet is the identity gate: on
// firmware whose reachable crash set the reference fuzzer found within
// budget, the rewritten single-worker fixed-seed fuzzer reports exactly
// the reference's deduplicated crash buckets.
func TestSingleWorkerMatchesReferenceCrashSet(t *testing.T) {
	prog := assemble(t, crashFirmware)
	cfg := Config{
		Program:  prog,
		Reset:    ResetSnapshot,
		MaxExecs: 4000,
		InputLen: 4,
		Seeds:    [][]byte{[]byte("Hx__")},
		Seed:     7,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newBuckets := make(map[CrashKey]bool)
	for _, c := range res.Crashes {
		newBuckets[CrashKey{PC: c.PC, Stop: c.Stop}] = true
	}
	if len(referenceCrashSet) != len(newBuckets) {
		t.Fatalf("crash buckets differ: ref %v vs new %v", referenceCrashSet, newBuckets)
	}
	for k := range referenceCrashSet {
		if !newBuckets[k] {
			t.Fatalf("bucket %+v found by reference but not by rewrite", k)
		}
	}
}

// TestSingleWorkerDeterministic: two identical fixed-seed
// single-worker runs are byte-identical in every reported dimension,
// including the crashing inputs.
func TestSingleWorkerDeterministic(t *testing.T) {
	prog := assemble(t, crashFirmware)
	cfg := Config{
		Program:  prog,
		Reset:    ResetSnapshot,
		MaxExecs: 500,
		InputLen: 4,
		Seeds:    [][]byte{[]byte("Hx__")},
		Seed:     21,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Execs != b.Execs || a.Edges != b.Edges || a.Corpus != b.Corpus ||
		a.VirtTime != b.VirtTime || len(a.Crashes) != len(b.Crashes) {
		t.Fatalf("not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Crashes {
		if string(a.Crashes[i].Input) != string(b.Crashes[i].Input) ||
			a.Crashes[i].PC != b.Crashes[i].PC || a.Crashes[i].Count != b.Crashes[i].Count {
			t.Fatalf("crash %d differs: %+v vs %+v", i, a.Crashes[i], b.Crashes[i])
		}
	}
}
