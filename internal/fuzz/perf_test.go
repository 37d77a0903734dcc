package fuzz

import (
	"testing"

	"hardsnap/internal/asm"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
)

func mustAssembleFuzz(tb testing.TB, src string) *asm.Program {
	tb.Helper()
	p, err := asm.Assemble(src, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// testCampaign is the shared state Run would build around cfg.
func testCampaign(cfg Config) *campaign {
	return &campaign{
		cfg:     cfg.withDefaults(),
		store:   snapshot.NewStore(),
		global:  &Global{},
		corpus:  NewCorpus(),
		crashes: newCrashBook(nil),
	}
}

// benchWorker builds a warmed-up single worker over the given
// firmware: snapshot captured, corpus primed, a few hundred
// iterations executed so admissions have tapered off and the loop is
// in its steady state.
func benchWorker(tb testing.TB, src string, periphs []target.PeriphConfig, inputLen int) *worker {
	tb.Helper()
	var prog = mustAssembleFuzz(tb, src)
	cfg := Config{
		Program:     prog,
		Peripherals: periphs,
		Reset:       ResetSnapshot,
		MaxExecs:    1 << 30, // workers pull from quota; irrelevant here
		InputLen:    inputLen,
		Seed:        1,
	}
	w, err := newWorker(0, testCampaign(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	if w.rig.Target != nil {
		if w.powerOn, err = w.rig.Snaps.Capture(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.runSeeds(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := w.fuzzOne(); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

// steadyFirmware exercises the coverage loop without crashing: an
// input-dependent loop plus a few branches, always halting.
const steadyFirmware = `
_start:
		addi r10, r0, 50
init:
		addi r10, r10, -1
		bne r10, r0, init
		ecall 6
		li r1, 0x800
		addi r2, r0, 8
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 15
loop:
		addi r4, r4, -1
		bge r4, r0, loop
		lbu r5, 1(r1)
		addi r6, r0, 100
		blt r5, r6, low
		addi r7, r0, 1
low:
		halt
`

// TestFuzzExecZeroAlloc is the hard satellite gate: one steady-state
// fuzzing iteration (reset, pick, mutate, execute, classify, merge,
// clear) performs zero heap allocations — on a software-only target
// and with a simulated peripheral plus snapshot restore in the loop.
func TestFuzzExecZeroAlloc(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		periphs  []target.PeriphConfig
		inputLen int
	}{
		{"software", steadyFirmware, nil, 8},
		{"hardware", hwFirmware, []target.PeriphConfig{{Name: "crc0", Periph: "crc32"}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := benchWorker(t, tc.src, tc.periphs, tc.inputLen)
			allocs := testing.AllocsPerRun(200, func() {
				if err := w.fuzzOne(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state fuzz iteration allocates %.2f/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkFuzzExec measures one complete steady-state fuzzing
// iteration on a software-only target. Run with -benchmem: the
// headline number is 0 allocs/op.
func BenchmarkFuzzExec(b *testing.B) {
	w := benchWorker(b, steadyFirmware, nil, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.fuzzOne(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuzzExecHardware is the same loop with a CRC peripheral on
// a simulator target in the loop — the E18 configuration.
func BenchmarkFuzzExecHardware(b *testing.B) {
	w := benchWorker(b, hwFirmware, []target.PeriphConfig{{Name: "crc0", Periph: "crc32"}}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.fuzzOne(); err != nil {
			b.Fatal(err)
		}
	}
}
