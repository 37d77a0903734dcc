package fuzz

import (
	"testing"

	"hardsnap/internal/asm"
	"hardsnap/internal/target"
	"hardsnap/internal/vm"
)

// crashFirmware aborts on the 2-byte magic "HS" at the start of the
// input. A short init loop plus snapshot hint models device bring-up.
const crashFirmware = `
_start:
		; expensive init: pretend to configure things
		addi r10, r0, 200
init:
		addi r10, r10, -1
		bne r10, r0, init
		ecall 6            ; snapshot hint: clean post-init state
		; request input
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		addi r5, r0, 72    ; 'H'
		bne r4, r5, ok
		lbu r4, 1(r1)
		addi r5, r0, 83    ; 'S'
		bne r4, r5, ok
		abort              ; crash on "HS.."
ok:
		halt
`

func assemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFuzzFindsMagicCrash(t *testing.T) {
	prog := assemble(t, crashFirmware)
	res, err := Run(Config{
		Program:  prog,
		Reset:    ResetSnapshot,
		MaxExecs: 4000,
		InputLen: 4,
		Seeds:    [][]byte{[]byte("Hx__")}, // one byte away
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashes) == 0 {
		t.Fatalf("no crash found in %d execs (edges %d)", res.Execs, res.Edges)
	}
	c := res.Crashes[0]
	if c.Stop != vm.StopAbort {
		t.Fatalf("crash kind %v", c.Stop)
	}
	if c.Input[0] != 'H' || c.Input[1] != 'S' {
		t.Fatalf("crashing input %q", c.Input)
	}
}

func TestSnapshotResetFasterThanReboot(t *testing.T) {
	prog := assemble(t, crashFirmware)
	run := func(reset ResetStrategy) *Result {
		res, err := Run(Config{
			Program:  prog,
			Reset:    reset,
			MaxExecs: 50,
			InputLen: 4,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	snap := run(ResetSnapshot)
	reboot := run(ResetReboot)
	if snap.VirtTime >= reboot.VirtTime {
		t.Fatalf("snapshot reset (%v) must beat reboot (%v)", snap.VirtTime, reboot.VirtTime)
	}
	if snap.ExecsPerVirtSecond <= reboot.ExecsPerVirtSecond {
		t.Fatalf("execs/s: snapshot %.1f vs reboot %.1f", snap.ExecsPerVirtSecond, reboot.ExecsPerVirtSecond)
	}
	// The speedup should be substantial (reboot costs half a second).
	if snap.ExecsPerVirtSecond < 5*reboot.ExecsPerVirtSecond {
		t.Fatalf("speedup too small: %.1fx", snap.ExecsPerVirtSecond/reboot.ExecsPerVirtSecond)
	}
}

// hwFirmware feeds input through the CRC peripheral and crashes on a
// specific checksum-relevant property (first byte 0xA5).
const hwFirmware = `
_start:
		li r8, 0x40000000  ; crc32 base
		addi r4, r0, 1
		sw r4, 8(r8)       ; init
		ecall 6
		li r1, 0x800
		addi r2, r0, 2
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		sw r4, 0(r8)       ; feed byte
wait:
		lw r5, 12(r8)
		bne r5, r0, wait   ; poll busy
		lw r6, 4(r8)       ; read crc
		lbu r4, 0(r1)
		addi r5, r0, 0xA5
		bne r4, r5, ok
		abort
ok:
		halt
`

func TestFuzzWithHardware(t *testing.T) {
	prog := assemble(t, hwFirmware)
	res, err := Run(Config{
		Program:     prog,
		Peripherals: []target.PeriphConfig{{Name: "crc0", Periph: "crc32"}},
		Reset:       ResetSnapshot,
		MaxExecs:    2000,
		InputLen:    2,
		Seeds:       [][]byte{{0xA4, 0x00}},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashes) == 0 {
		t.Fatalf("no crash in %d execs", res.Execs)
	}
	if res.Crashes[0].Input[0] != 0xA5 {
		t.Fatalf("input %x", res.Crashes[0].Input)
	}
}

func TestHardwareStateResetBetweenExecs(t *testing.T) {
	// Without reset, the timer keeps running across execs and the
	// firmware (which asserts the timer's value right after "boot")
	// reports false positives; with snapshot reset it never does.
	src := `
_start:
		li r8, 0x40000000
		ecall 6
		lw r4, 4(r8)       ; timer VALUE register
		sltiu r1, r4, 1    ; assert VALUE == 0 at boot
		ecall 2
		li r5, 5000
		sw r5, 0(r8)       ; LOAD
		addi r5, r0, 1
		sw r5, 8(r8)       ; enable
		addi r6, r0, 50
spin:
		addi r6, r6, -1
		bne r6, r0, spin
		halt
	`
	prog := assemble(t, src)
	run := func(reset ResetStrategy) *Result {
		res, err := Run(Config{
			Program:     prog,
			Peripherals: []target.PeriphConfig{{Name: "timer0", Periph: "timer"}},
			Reset:       reset,
			MaxExecs:    5,
			InputLen:    1,
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(ResetSnapshot)
	if len(clean.Crashes) != 0 {
		t.Fatalf("snapshot reset: %d false positives", len(clean.Crashes))
	}
	dirty := run(ResetNone)
	if len(dirty.Crashes) == 0 {
		t.Fatal("no-reset mode should produce state-pollution false positives")
	}
}

func TestDeterministicCampaigns(t *testing.T) {
	prog := assemble(t, crashFirmware)
	cfg := Config{Program: prog, Reset: ResetSnapshot, MaxExecs: 100, InputLen: 4, Seed: 99}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Edges != b.Edges || a.Execs != b.Execs || len(a.Crashes) != len(b.Crashes) ||
		a.VirtTime != b.VirtTime {
		t.Fatalf("campaigns not deterministic: %+v vs %+v", a, b)
	}
}

func TestCoverageGrows(t *testing.T) {
	prog := assemble(t, crashFirmware)
	res, err := Run(Config{Program: prog, Reset: ResetSnapshot, MaxExecs: 200, InputLen: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges < 10 {
		t.Fatalf("implausibly low edge count %d", res.Edges)
	}
	if res.Corpus < 2 {
		t.Fatalf("corpus did not grow: %d", res.Corpus)
	}
}

func TestSnapshotResetUsesDeltaRestores(t *testing.T) {
	// Every exec after the first restores the same power-on snapshot
	// the previous restore anchored, so the dirty-tracked delta path
	// must carry (nearly) all of the reset traffic on a plain
	// simulator target.
	prog := assemble(t, hwFirmware)
	res, err := Run(Config{
		Program:     prog,
		Peripherals: []target.PeriphConfig{{Name: "crc0", Periph: "crc32"}},
		Reset:       ResetSnapshot,
		MaxExecs:    50,
		InputLen:    2,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaRestores == 0 {
		t.Fatalf("snapshot reset never used the delta path: %+v", res)
	}
	if res.DeltaRestores > res.HWRestores {
		t.Fatalf("delta restores %d exceed hardware restores %d",
			res.DeltaRestores, res.HWRestores)
	}
	full := res.HWRestores - res.DeltaRestores
	if full > res.DeltaRestores {
		t.Fatalf("full restores (%d) dominate delta restores (%d)",
			full, res.DeltaRestores)
	}
}

// TestWildPointerIsAFaultCrash: a load through a pointer at the very
// top of the address space (0xFFFFFFFE, 4 bytes) is recorded as a
// fault crash bucket. It used to wrap past the RAM range check and
// panic the worker, killing the campaign.
func TestWildPointerIsAFaultCrash(t *testing.T) {
	prog := assemble(t, `
_start:
		ecall 6
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lw r1, -2(r0)
		halt
`)
	res, err := Run(Config{Program: prog, Reset: ResetSnapshot, MaxExecs: 20, InputLen: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashes) != 1 || res.Crashes[0].Stop != vm.StopFault {
		t.Fatalf("crashes %+v, want one fault bucket", res.Crashes)
	}
}
