package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vm"
)

func TestReplayReproducesBug(t *testing.T) {
	a, rep := run(t, SetupConfig{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 2
		addi r3, r0, 5
		ecall 1
		lbu r4, 0(r1)
		lbu r5, 1(r1)
		add r6, r4, r5
		addi r7, r0, 300
		bne r6, r7, safe
		abort              ; crash iff byte0 + byte1 == 300
safe:
		halt
		`,
	})
	bugs := rep.Bugs()
	if len(bugs) != 1 {
		t.Fatalf("bugs: %d", len(bugs))
	}
	res, err := a.Replay(bugs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("bug not reproduced: concrete stop %v at %#x (vector %v)",
			res.Stop, res.PC, res.Vector)
	}
	if res.Stop != vm.StopAbort {
		t.Fatalf("stop %v", res.Stop)
	}
	in := res.Vector[5]
	if len(in) != 2 || uint32(in[0])+uint32(in[1]) != 300 {
		t.Fatalf("vector does not satisfy the crash condition: %v", in)
	}
}

func TestReplayAllPathsWithHardware(t *testing.T) {
	// Every finished path of a hardware-coupled analysis must replay
	// concretely to the same outcome, whatever vehicle and RTL engine
	// the analysis (and so its replay rig) is configured with.
	for _, tc := range []struct {
		name         string
		fpga, interp bool
	}{
		{name: "simulator"},
		{name: "fpga-scan", fpga: true},
		{name: "interp", interp: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.interp {
				useEngine(t, sim.EngineInterp)
			}
			a, rep := run(t, SetupConfig{
				Firmware: `
_start:
		li r8, 0x40000000
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 3
		sw r4, 0(r8)       ; drive GPIO with input-derived value
		lw r5, 0(r8)
		addi r6, r0, 3
		bne r5, r6, other
		abort              ; "crash" when input & 3 == 3
other:
		halt
		`,
				Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
				FPGA:        tc.fpga,
				Exec:        symexec.Config{Policy: symexec.ConcretizeAll},
				Engine:      Config{MaxInstructions: 100000},
			})
			if len(rep.Finished) < 2 {
				t.Fatalf("paths: %d", len(rep.Finished))
			}
			for _, st := range rep.Finished {
				if st.Status != symexec.StatusHalted && st.Status != symexec.StatusAborted {
					continue
				}
				res, err := a.Replay(st)
				if err != nil {
					t.Fatalf("replay state %d: %v", st.ID, err)
				}
				if !res.Reproduced {
					t.Fatalf("state %d (%v) not reproduced: concrete %v at %#x",
						st.ID, st.Status, res.Stop, res.PC)
				}
			}
		})
	}
}

func TestReplayReproducesHardwarePropertyBug(t *testing.T) {
	// The replay rig carries the analysis' hardware assertions: the
	// violation that ended the symbolic path ends the concrete run.
	a, rep := run(t, forbiddenValueSetup())
	var hit *symexec.State
	for _, st := range rep.Finished {
		if st.Status == symexec.StatusAssertFail {
			hit = st
		}
	}
	if hit == nil {
		t.Fatal("no path flagged for the violation")
	}
	res, err := a.Replay(hit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced || res.Stop != vm.StopAssertFail {
		t.Fatalf("hardware-property bug not reproduced: concrete stop %v at %#x", res.Stop, res.PC)
	}
	if in := res.Vector[1]; len(in) != 1 || in[0] != 0xAD {
		t.Fatalf("vector %v, want the 0xAD command", in)
	}
	// The other paths never violate the property and replay to a halt.
	for _, st := range rep.Finished {
		if st.Status != symexec.StatusHalted {
			continue
		}
		res, err := a.Replay(st)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reproduced {
			t.Fatalf("state %d: clean path replayed to %v", st.ID, res.Stop)
		}
	}
}

func TestReplayConsoleMatches(t *testing.T) {
	a, rep := run(t, SetupConfig{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 0x7F
		; print 'A' + (input & 1)
		andi r5, r4, 1
		addi r5, r5, 65
		mv r1, r5
		ecall 3
		halt
		`,
	})
	for _, st := range rep.Finished {
		if st.Status != symexec.StatusHalted {
			continue
		}
		res, err := a.Replay(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Console, st.Console) {
			t.Fatalf("console mismatch: symbolic %q concrete %q", st.Console, res.Console)
		}
	}
}

func TestTestVectorAliasedTags(t *testing.T) {
	// Re-registering a tag aliases the same symbolic input; the
	// vector must still satisfy the path.
	a, rep := run(t, SetupConfig{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 7
		ecall 1
		li r1, 0x200
		addi r2, r0, 1
		addi r3, r0, 7
		ecall 1            ; same tag: same input byte
		lbu r4, 0x100(r0)
		lbu r5, 0x200(r0)
		bne r4, r5, bad
		halt
bad:
		abort
		`,
	})
	// The aliased bytes are equal by construction, so the abort path
	// is infeasible.
	if got := rep.CountStatus(symexec.StatusAborted); got != 0 {
		t.Fatalf("aliased inputs diverged: %d aborts", got)
	}
	for _, st := range rep.Finished {
		if st.Status == symexec.StatusHalted {
			if _, ok := a.Exec.TestVector(st); !ok {
				t.Fatal("vector extraction failed")
			}
		}
	}
}

func TestWriteCrashReports(t *testing.T) {
	a, rep := run(t, SetupConfig{
		Firmware: `
_start:
		li r8, 0x40000000
		li r5, 0x77
		sw r5, 0(r8)
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 4
		ecall 1
		lbu r4, 0(r1)
		addi r5, r0, 9
		bne r4, r5, ok
		abort
ok:
		halt
		`,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Engine:      Config{KeepBugSnapshots: true, MaxInstructions: 100000},
	})
	bugs := rep.Bugs()
	if len(bugs) != 1 {
		t.Fatalf("bugs: %d", len(bugs))
	}
	dir := t.TempDir()
	n, err := a.WriteCrashReports(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reports written: %d", n)
	}
	sub := filepath.Join(dir, fmt.Sprintf("bug-%d", bugs[0].ID))

	report, err := os.ReadFile(filepath.Join(sub, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "status: aborted") ||
		!strings.Contains(string(report), "sym4_0 = 0x9") {
		t.Fatalf("report content:\n%s", report)
	}

	vec, err := os.ReadFile(filepath.Join(sub, "vector-4"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 1 || vec[0] != 9 {
		t.Fatalf("vector: %v", vec)
	}

	// The retained hardware snapshot decodes and contains the value
	// the firmware programmed before crashing.
	data, err := os.ReadFile(filepath.Join(sub, "hardware.snap"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	hw := rec.HW.Get("gpio0")
	if out := slices.Index(hw.Layout().Regs, "out"); out < 0 || hw.Vals()[out] != 0x77 {
		t.Fatalf("hardware snapshot: %v = %#x", hw.Layout().Regs, hw.Vals())
	}

	// And the vector replays to the same crash.
	res, err := a.ReplayVector(bugs[0], map[uint32][]byte{4: vec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("replay from report artifacts failed: %v", res.Stop)
	}
}
