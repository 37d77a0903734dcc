package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"hardsnap/internal/core"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
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

func TestRigKey(t *testing.T) {
	a := gpioJob(buggyFirmware, 1)
	b := gpioJob(fanoutFirmware, 4)
	b.Searcher = "dfs"
	if a.RigKey() != b.RigKey() {
		t.Fatal("same peripherals must share a rig key")
	}
	c := a
	c.FPGA = true
	if c.RigKey() == a.RigKey() {
		t.Fatal("FPGA job must not share the simulator rig key")
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

// TestRunnerPooledTargetIdentity: running on an injected pre-built
// target (the pool's warm path) must be result-identical to letting
// Setup build the target, including with hardware assertions armed.
func TestRunnerPooledTargetIdentity(t *testing.T) {
	job := gpioJob(fanoutFirmware, 4)
	job.Assertions = []target.HWAssertion{
		{Periph: "gpio0", Name: "sticky", Expr: "out == out"},
	}
	cold, err := Runner{}.Run(context.Background(), job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	pooled, err := target.NewSimulator("pool0", &vtime.Clock{},
		[]target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Runner{}.Run(context.Background(), job, RunOptions{Target: pooled})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Fatalf("pooled run diverged: %s vs %s", warm.Fingerprint, cold.Fingerprint)
	}

	// Recycle and run again: a reused pool slot must stay identical.
	if err := pooled.Recycle(); err != nil {
		t.Fatal(err)
	}
	again, err := Runner{}.Run(context.Background(), job, RunOptions{Target: pooled})
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint != cold.Fingerprint {
		t.Fatalf("recycled run diverged: %s vs %s", again.Fingerprint, cold.Fingerprint)
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

// TestRunnerRefusesTargetWithFanout: a pre-built target runs the whole
// job on one vehicle, so it cannot be combined with a node fan-out.
func TestRunnerRefusesTargetWithFanout(t *testing.T) {
	pooled, err := target.NewSimulator("pool0", &vtime.Clock{},
		[]target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}})
	if err != nil {
		t.Fatal(err)
	}
	fanout := func(context.Context, Job, *core.Frontier) (*core.Report, error) {
		t.Fatal("fan-out ran beside a pre-built target")
		return nil, nil
	}
	if _, err := (Runner{}).Run(context.Background(), gpioJob(fanoutFirmware, 2),
		RunOptions{Target: pooled, Fanout: fanout}); err == nil {
		t.Fatal("runner accepted a pre-built target together with a fan-out")
	}
}
