package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"hardsnap/internal/core"
	"hardsnap/internal/target"
)

// buggyFirmware crashes only on input 0x42 (two paths, one bug).
const buggyFirmware = `
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
`

// fanoutFirmware branches on six symbolic bits up front (64 paths,
// so the active set outgrows the fan-out width and parallel runs
// really distribute subtrees), does per-path gpio traffic, and
// aborts on exactly one path (all six bits set).
const fanoutFirmware = `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		li r8, 0x40000000
		andi r5, r4, 1
		beq r5, r0, b1
		nop
b1:
		andi r5, r4, 2
		beq r5, r0, b2
		nop
b2:
		andi r5, r4, 4
		beq r5, r0, b3
		nop
b3:
		andi r5, r4, 8
		beq r5, r0, b4
		nop
b4:
		andi r5, r4, 16
		beq r5, r0, b5
		nop
b5:
		andi r5, r4, 32
		beq r5, r0, work
		nop
work:
		sw r4, 0(r8)
		lw r6, 0(r8)
		andi r5, r4, 63
		addi r7, r0, 63
		bne r5, r7, fine
		abort
fine:
		halt
`

func gpioJob(firmware string, workers int) Job {
	return Job{
		Firmware:    firmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Searcher:    "bfs",
		Workers:     workers,
	}
}

func TestJobDefaultsAndValidate(t *testing.T) {
	j := Job{Firmware: "halt"}
	if err := j.Validate(); err != nil {
		t.Fatalf("minimal job invalid: %v", err)
	}
	for _, bad := range []Job{
		{},
		{Firmware: "halt", Mode: "warp"},
		{Firmware: "halt", Searcher: "psychic"},
		{Firmware: "halt", Concretize: "some"},
		{Firmware: "halt", Workers: -1},
		{Firmware: "halt", SeedFanout: -1},
		{Firmware: "halt", FPGA: true,
			Assertions: []target.HWAssertion{{Periph: "g", Name: "a", Expr: "1"}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("job %+v passed validation", bad)
		}
	}
}

// TestJobValidateWorkersBound: each worker slot starts a goroutine
// and spawns a rig, and the seed phase never yields more than
// core.MaxStates subtrees, so a job over the wire may not ask for
// more workers than that. Validate only; no such job is run.
func TestJobValidateWorkersBound(t *testing.T) {
	for _, w := range []int{0, 1, core.MaxStates} {
		if err := (Job{Firmware: "halt", Workers: w}).Validate(); err != nil {
			t.Errorf("workers=%d rejected: %v", w, err)
		}
	}
	for _, w := range []int{core.MaxStates + 1, 1 << 30} {
		if err := (Job{Firmware: "halt", Workers: w}).Validate(); err == nil {
			t.Errorf("workers=%d accepted", w)
		}
	}
}

func TestJobFingerprint(t *testing.T) {
	implicit := Job{Firmware: "halt"}
	explicit := Job{
		Firmware: "halt", Mode: "hardsnap", Searcher: "dfs",
		Concretize: "one", MaxInstructions: 2_000_000, Workers: 1,
	}
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Fatal("defaults-resolved job must fingerprint like its explicit form")
	}
	changed := implicit
	changed.Searcher = "bfs"
	if changed.Fingerprint() == implicit.Fingerprint() {
		t.Fatal("different searcher, same fingerprint")
	}
	// Chaos is a test seam, not part of the spec.
	chaotic := implicit
	chaotic.Chaos = &core.ChaosSchedule{DieAfterSubtrees: 1}
	if chaotic.Fingerprint() != implicit.Fingerprint() {
		t.Fatal("chaos schedule leaked into the job fingerprint")
	}
}

// TestJobFingerprintPinned pins one job's fingerprint to a fixed hex:
// journals and the farm key work by it, so dropping an omitempty field
// or renaming a JSON tag must not move the identity of existing jobs.
func TestJobFingerprintPinned(t *testing.T) {
	j := Job{
		Firmware:    "movi r1, 1\nhalt\n",
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Searcher:    "bfs",
		Concretize:  "all",
		Workers:     2,
	}
	const want = "dd8308c2a413803de93946e350e8f9c49ac9e95e41879a1e11131bbf029433cc"
	if got := j.Fingerprint(); got != want {
		t.Fatalf("fingerprint moved: got %s, want %s", got, want)
	}
}

func TestRunnerFindsBug(t *testing.T) {
	events := make(chan Event, 64)
	res, err := Runner{}.Run(context.Background(), gpioJob(buggyFirmware, 1),
		RunOptions{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 || res.Paths != 2 {
		t.Fatalf("bugs=%d paths=%d, want 1/2", len(res.Bugs), res.Paths)
	}
	if res.Bugs[0].Model["sym9_0"] != 0x42 {
		t.Fatalf("bug model: %v", res.Bugs[0].Model)
	}
	if res.Fingerprint == "" || res.JobFingerprint == "" {
		t.Fatal("missing fingerprints")
	}
	close(events)
	var kinds []EventKind
	for ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := map[EventKind]bool{EventStarted: false, EventBug: false, EventCompleted: false}
	for _, k := range kinds {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("event %q not delivered (got %v)", k, kinds)
		}
	}
}

// TestRunnerMatchesDirectSetup: the Runner is a refactor, not a new
// engine — its result must fingerprint-match a hand-built core run.
func TestRunnerMatchesDirectSetup(t *testing.T) {
	res, err := Runner{}.Run(context.Background(), gpioJob(fanoutFirmware, 4), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	setup, err := gpioJob(fanoutFirmware, 4).SetupConfig()
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := core.Setup(setup)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analysis.Engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Fingerprint(rep); got != res.Fingerprint {
		t.Fatalf("runner diverged from direct setup: %s vs %s", res.Fingerprint, got)
	}
}

// TestRunnerJournalResume: kill a journaled job mid-campaign (chaos
// die gate), then resume it through the Runner and land on the clean
// fingerprint.
func TestRunnerJournalResume(t *testing.T) {
	job := gpioJob(fanoutFirmware, 4)
	clean, err := Runner{}.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(t.TempDir(), "job.hsj")
	killed := job
	killed.Chaos = &core.ChaosSchedule{DieAfterSubtrees: 3}
	_, err = Runner{}.Run(context.Background(), killed, RunOptions{Journal: jpath})
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	cam, err := core.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if cam.Complete || len(cam.Results) == 0 {
		t.Fatalf("journal state: complete=%v results=%d", cam.Complete, len(cam.Results))
	}
	resumed, err := Runner{}.Run(context.Background(), job, RunOptions{Resume: cam})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fingerprint != clean.Fingerprint {
		t.Fatalf("resumed run diverged: %s vs %s", resumed.Fingerprint, clean.Fingerprint)
	}
	if resumed.Report.Recovery.ResumedSubtrees == 0 {
		t.Fatal("resume re-explored everything instead of replaying the journal")
	}
}
