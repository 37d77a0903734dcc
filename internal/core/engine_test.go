package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

func run(t *testing.T, cfg SetupConfig) (*Analysis, *Report) {
	t.Helper()
	a, err := Setup(cfg)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	rep, err := a.Engine.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return a, rep
}

func TestSoftwareOnlyRun(t *testing.T) {
	_, rep := run(t, SetupConfig{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 1
		beq r4, r0, even
		halt
even:
		halt
		`,
	})
	if len(rep.Finished) != 2 {
		t.Fatalf("paths: %d", len(rep.Finished))
	}
	if rep.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatalf("halted: %d", rep.CountStatus(symexec.StatusHalted))
	}
}

const timerIRQFirmware = `
_start:
		la r1, handler
		li r2, 0xFC0
		sw r1, 0(r2)
		li r8, 0x40000000
		addi r4, r0, 30
		sw r4, 0(r8)      ; LOAD = 30
		addi r4, r0, 3
		sw r4, 8(r8)      ; CTRL = enable | irq_en
wait:
		beq r9, r0, wait
		halt
handler:
		addi r9, r0, 1
		addi r4, r0, 1
		sw r4, 12(r8)     ; clear expired
		mret
`

func TestHardwareIRQDelivery(t *testing.T) {
	_, rep := run(t, SetupConfig{
		Firmware:    timerIRQFirmware,
		Peripherals: []target.PeriphConfig{{Name: "timer0", Periph: "timer"}},
		Engine:      Config{MaxInstructions: 20000},
	})
	if len(rep.Finished) != 1 {
		t.Fatalf("paths: %d", len(rep.Finished))
	}
	st := rep.Finished[0]
	if st.Status != symexec.StatusHalted {
		t.Fatalf("status %v (err %v, pc %#x)", st.Status, st.Err, st.PC)
	}
}

// consistencyFirmware reproduces the motivation example of Fig. 1: two
// execution paths drive the same peripheral with different values and
// assert their own value reads back.
const consistencyFirmware = `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 1
		li r8, 0x40000000
		beq r4, r0, pathB
pathA:
		li r5, 0xAAAA
		sw r5, 0(r8)
		nop
		nop
		nop
		nop
		lw r6, 0(r8)
		sub r1, r6, r5
		sltiu r1, r1, 1
		ecall 2           ; assert readback == written
		halt
pathB:
		li r5, 0x5555
		sw r5, 0(r8)
		nop
		nop
		nop
		nop
		lw r6, 0(r8)
		sub r1, r6, r5
		sltiu r1, r1, 1
		ecall 2
		halt
`

func consistencyRun(t *testing.T, mode Mode) *Report {
	t.Helper()
	_, rep := run(t, SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Engine: Config{
			Mode:            mode,
			Searcher:        &symexec.RoundRobin{},
			MaxInstructions: 100000,
		},
	})
	return rep
}

func TestConsistencyHardSnap(t *testing.T) {
	rep := consistencyRun(t, ModeHardSnap)
	if n := len(rep.Bugs()); n != 0 {
		t.Fatalf("HardSnap mode must have no false positives, got %d", n)
	}
	if rep.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatalf("both paths should complete: %+v", rep.Stats)
	}
	if rep.Stats.ContextSwitches == 0 {
		t.Fatal("round-robin must context switch")
	}
}

func TestConsistencyNaiveSharedCorrupts(t *testing.T) {
	rep := consistencyRun(t, ModeNaiveShared)
	if n := len(rep.Bugs()); n == 0 {
		t.Fatal("shared hardware with interleaved paths must corrupt at least one path (false positive)")
	}
}

func TestConsistencyNaiveRebootCorrect(t *testing.T) {
	rep := consistencyRun(t, ModeNaiveReboot)
	if n := len(rep.Bugs()); n != 0 {
		t.Fatalf("reboot mode is consistent; got %d false positives", n)
	}
	if rep.Stats.Reboots == 0 {
		t.Fatal("reboot mode should have rebooted")
	}
}

func TestRebootSlowerThanHardSnap(t *testing.T) {
	fast := consistencyRun(t, ModeHardSnap)
	slow := consistencyRun(t, ModeNaiveReboot)
	if slow.VirtualTime <= fast.VirtualTime {
		t.Fatalf("reboot (%v) should cost more virtual time than HardSnap (%v)",
			slow.VirtualTime, fast.VirtualTime)
	}
}

func TestForkSnapshotIsolation(t *testing.T) {
	// Fork AFTER hardware was programmed: both paths must observe the
	// pre-fork hardware value, then their own modifications.
	_, rep := run(t, SetupConfig{
		Firmware: `
_start:
		li r8, 0x40000000
		li r5, 0x1111
		sw r5, 0(r8)      ; shared prefix programs hardware
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 1
		beq r4, r0, two
one:
		lw r6, 0(r8)
		li r7, 0x1111
		sub r1, r6, r7
		sltiu r1, r1, 1
		ecall 2
		li r5, 0x2222
		sw r5, 0(r8)
		lw r6, 0(r8)
		sub r1, r6, r5
		sltiu r1, r1, 1
		ecall 2
		halt
two:
		lw r6, 0(r8)
		li r7, 0x1111
		sub r1, r6, r7
		sltiu r1, r1, 1
		ecall 2
		li r5, 0x3333
		sw r5, 0(r8)
		lw r6, 0(r8)
		sub r1, r6, r5
		sltiu r1, r1, 1
		ecall 2
		halt
		`,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Engine: Config{
			Mode:            ModeHardSnap,
			Searcher:        &symexec.RoundRobin{},
			MaxInstructions: 100000,
		},
	})
	if n := len(rep.Bugs()); n != 0 {
		bug := rep.Bugs()[0]
		t.Fatalf("fork isolation broken: %d bugs (pc %#x)", n, bug.PC)
	}
	if rep.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatalf("paths: %+v", rep.Stats)
	}
}

func TestFPGATargetEngine(t *testing.T) {
	_, rep := run(t, SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		FPGA:        true,
		Engine: Config{
			Mode:            ModeHardSnap,
			Searcher:        &symexec.RoundRobin{},
			MaxInstructions: 100000,
		},
	})
	if n := len(rep.Bugs()); n != 0 {
		t.Fatalf("FPGA-backed HardSnap must be consistent too, got %d bugs", n)
	}
}

func TestInstructionBudget(t *testing.T) {
	_, rep := run(t, SetupConfig{
		Firmware: "loop: j loop",
		Engine:   Config{MaxInstructions: 100},
	})
	if rep.Stats.Instructions != 100 {
		t.Fatalf("instructions: %d", rep.Stats.Instructions)
	}
	if rep.CountStatus(symexec.StatusBudget) != 1 {
		t.Fatal("state should be budget-killed")
	}
}

func TestBugModelExtraction(t *testing.T) {
	// The classic magic-value crash: only input 0x42 aborts.
	_, rep := run(t, SetupConfig{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 9
		ecall 1
		lbu r4, 0(r1)
		addi r5, r0, 0x42
		bne r4, r5, safe
		abort
safe:
		halt
		`,
	})
	bugs := rep.Bugs()
	if len(bugs) != 1 {
		t.Fatalf("bugs: %d", len(bugs))
	}
	if bugs[0].Model == nil || bugs[0].Model["sym9_0"] != 0x42 {
		t.Fatalf("bug model: %v", bugs[0].Model)
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	a, rep := run(t, SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Engine: Config{
			Mode:            ModeHardSnap,
			Searcher:        &symexec.RoundRobin{},
			MaxInstructions: 100000,
		},
	})
	if rep.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatal("run incomplete")
	}
	if live := liveSnapshots(a.Engine); live != 0 {
		t.Fatalf("leaked %d snapshots", live)
	}
}

func TestConsistencyRecordReplay(t *testing.T) {
	rep := consistencyRun(t, ModeRecordReplay)
	if n := len(rep.Bugs()); n != 0 {
		t.Fatalf("record-replay should be consistent here, got %d false positives", n)
	}
	if rep.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatalf("paths: %+v", rep.Stats)
	}
	if rep.Stats.ReplayedIO == 0 {
		t.Fatal("no interactions replayed")
	}
}

func TestRecordReplayCostGrowsWithInteractions(t *testing.T) {
	// A path with many interactions pays more per context switch than
	// HardSnap's O(state-bits) snapshot: the paper's argument against
	// record-and-replay (Talebi et al.: 8800 I/Os just for driver
	// init).
	mkFirmware := func(n int) string {
		src := `
_start:
		li r8, 0x40000000
		addi r9, r0, ` + fmt.Sprintf("%d", n) + `
ioloop:
		sw r9, 0(r8)
		lw r4, 0(r8)
		addi r9, r9, -1
		bne r9, r0, ioloop
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 1
		beq r4, r0, b
		nop
b:
		sw r4, 0(r8)
		lw r5, 0(r8)
		halt
`
		return src
	}
	timeFor := func(mode Mode, n int) time.Duration {
		a, err := Setup(SetupConfig{
			Firmware:    mkFirmware(n),
			Peripherals: []target.PeriphConfig{{Name: "g", Periph: "gpio"}},
			FPGA:        true,
			Engine: Config{
				Mode:            mode,
				Searcher:        &symexec.RoundRobin{},
				MaxInstructions: 1_000_000,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Engine.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.CountStatus(symexec.StatusHalted); got != 2 {
			t.Fatalf("mode %v: halted %d", mode, got)
		}
		return rep.VirtualTime
	}
	rrShort := timeFor(ModeRecordReplay, 10)
	rrLong := timeFor(ModeRecordReplay, 200)
	hsLong := timeFor(ModeHardSnap, 200)
	if rrLong <= rrShort {
		t.Fatalf("replay cost should grow with interactions: %v vs %v", rrShort, rrLong)
	}
	if rrLong <= hsLong {
		t.Fatalf("record-replay (%v) should cost more than HardSnap (%v) for I/O-heavy paths", rrLong, hsLong)
	}
}

func TestRecordReplayLogLifecycle(t *testing.T) {
	a, rep := run(t, SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "g", Periph: "gpio"}},
		Engine: Config{
			Mode:            ModeRecordReplay,
			Searcher:        &symexec.RoundRobin{},
			MaxInstructions: 1_000_000,
		},
	})
	if rep.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatalf("paths: %+v", rep.Stats)
	}
	if n := len(a.Engine.ioLogs); n != 0 {
		t.Fatalf("leaked %d I/O logs", n)
	}
}

// forbiddenValueSetup is a hardware-property bug: the firmware writes
// an input-derived value to the GPIO; a hardware property forbids the
// value 0xBAD, which only the 0xAD command programs.
func forbiddenValueSetup() SetupConfig {
	return SetupConfig{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		li r8, 0x40000000
		; a "command dispatcher": command 0xAD programs mode 0xBAD
		addi r5, r0, 0xAD
		bne r4, r5, normal
		li r6, 0xBAD
		sw r6, 0(r8)
		j out
normal:
		sw r4, 0(r8)
out:
		nop
		nop
		halt
		`,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		HWAssertions: []target.HWAssertion{
			{Periph: "gpio0", Name: "forbidden-value", Expr: "out != 32'hBAD"},
		},
		Engine: Config{MaxInstructions: 200000},
	}
}

func TestHardwareAssertionFindsMisuse(t *testing.T) {
	// Symbolic execution plus the HW assertion finds the exact input
	// that misuses the peripheral — the paper's "test vectors to test
	// hardware".
	a, rep := run(t, forbiddenValueSetup())
	if rep.Stats.HWViolations == 0 {
		t.Fatal("hardware violation not detected")
	}
	var hit *symexec.State
	for _, st := range rep.Finished {
		if st.Status == symexec.StatusAssertFail {
			hit = st
		}
	}
	if hit == nil {
		t.Fatal("no path flagged for the violation")
	}
	if hit.Err == nil || !strings.Contains(hit.Err.Error(), "forbidden-value") {
		t.Fatalf("violation detail missing: %v", hit.Err)
	}
	// The test vector drives the hardware into the forbidden state.
	vec, ok := a.Exec.TestVector(hit)
	if !ok {
		t.Fatal("no test vector")
	}
	if vec[1][0] != 0xAD {
		t.Fatalf("test vector %#x, want the 0xAD command", vec[1][0])
	}
}

func TestUARTInterruptDrivenFirmware(t *testing.T) {
	// Interrupt-driven RX: firmware transmits over loopback and the
	// RX-available IRQ handler collects the byte, across two
	// peripherals (uart irq 0, timer irq 1 unused).
	_, rep := run(t, SetupConfig{
		Firmware: `
_start:
		la r1, on_rx
		li r2, 0xFC0       ; vector for IRQ 0 (uart0)
		sw r1, 0(r2)
		li r8, 0x40000000
		addi r4, r0, 3     ; loopback + irq_en_rx
		sw r4, 8(r8)
		addi r4, r0, 0x5A
		sw r4, 0(r8)       ; transmit
wait:
		beq r9, r0, wait   ; r9 set by the handler
		addi r5, r0, 0x5A
		sub r1, r9, r5
		sltiu r1, r1, 1
		ecall 2            ; handler must have captured 0x5A
		halt
on_rx:
		lw r9, 0(r8)       ; pop the byte (clears rx_avail -> irq)
		mret
		`,
		Peripherals: []target.PeriphConfig{
			{Name: "uart0", Periph: "uart"},
			{Name: "timer0", Periph: "timer"},
		},
		Engine: Config{MaxInstructions: 100000},
	})
	if len(rep.Finished) != 1 {
		t.Fatalf("paths: %d", len(rep.Finished))
	}
	st := rep.Finished[0]
	if st.Status != symexec.StatusHalted {
		t.Fatalf("status %v (err %v, pc %#x, steps %d)", st.Status, st.Err, st.PC, st.Steps)
	}
}
