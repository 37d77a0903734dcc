package hardsnap_test

import (
	"testing"

	"hardsnap"
)

// TestPublicAPIQuickstart drives a full analysis through the facade.
func TestPublicAPIQuickstart(t *testing.T) {
	analysis, err := hardsnap.Setup(hardsnap.SetupConfig{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		addi r5, r0, 13
		bne r4, r5, ok
		abort
ok:
		halt`,
		Peripherals: []hardsnap.PeriphConfig{{Name: "timer0", Periph: "timer"}},
		Engine:      hardsnap.EngineConfig{Mode: hardsnap.ModeHardSnap},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := analysis.Engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	bugs := report.Bugs()
	if len(bugs) != 1 {
		t.Fatalf("bugs: %d", len(bugs))
	}
	if bugs[0].Model["sym1_0"] != 13 {
		t.Fatalf("model: %v", bugs[0].Model)
	}

	// The found bug replays concretely.
	res, err := analysis.Replay(bugs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("replay: %v at %#x", res.Stop, res.PC)
	}
}

func TestPublicAPITransfer(t *testing.T) {
	// Assemble + fuzz through the facade.
	prog, err := hardsnap.Assemble(`
_start:
		ecall 6
		li r1, 0x800
		addi r2, r0, 2
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		addi r5, r0, 0x99
		bne r4, r5, ok
		abort
ok:
		halt`, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hardsnap.Fuzz(hardsnap.FuzzConfig{
		Program:  prog,
		Reset:    hardsnap.ResetSnapshot,
		MaxExecs: 500,
		InputLen: 2,
		Seeds:    [][]byte{{0x98, 0}},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Execs != 500 {
		t.Fatalf("execs: %d", res.Execs)
	}
}
