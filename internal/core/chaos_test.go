package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"hardsnap/internal/sim"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

// useEngine makes every simulator built until the test ends run on
// kind, through the process default that hssim -interp sets. No test
// in this package runs in parallel, so the switch cannot leak into
// another test.
func useEngine(t *testing.T, kind sim.EngineKind) {
	prev := sim.DefaultEngine()
	sim.SetDefaultEngine(kind)
	t.Cleanup(func() { sim.SetDefaultEngine(prev) })
}

// chaosSetup builds the standard crash-safety workload: the 64-path
// scaling firmware on 4 workers (16 fan-out subtrees), hardsnap mode.
func chaosSetup(chaos *ChaosSchedule, journalPath string, resume *Campaign, searcher symexec.Searcher) SetupConfig {
	return SetupConfig{
		Firmware:    scalingFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Engine: Config{
			Mode:            ModeHardSnap,
			Searcher:        searcher,
			MaxInstructions: 1_000_000,
			Workers:         4,
			Chaos:           chaos,
			JournalPath:     journalPath,
			Resume:          resume,
			// Chaos tests kill many workers on purpose; never let the
			// restart budget be the thing that fails the run.
			MaxWorkerRestarts: 100,
		},
	}
}

// TestChaosIdentity is the tentpole identity gate: runs riddled with
// seeded worker panics and kills must report byte-identical bugs,
// paths and virtual time to the undisturbed run — recovery replays
// subtrees, it never invents or loses results. The engine axis runs
// one schedule on the interpreter RTL engine: the engine may change
// only how fast hardware is simulated, never the fingerprint.
func TestChaosIdentity(t *testing.T) {
	_, clean := run(t, chaosSetup(nil, "", nil, symexec.BFS{}))
	want := Fingerprint(clean)
	if len(clean.Bugs()) != 1 {
		t.Fatalf("clean bugs: %d, want 1", len(clean.Bugs()))
	}

	for _, tc := range []struct {
		seed   int64
		interp bool
	}{{seed: 1}, {seed: 7}, {seed: 13}, {seed: 7, interp: true}} {
		t.Run(fmt.Sprintf("seed=%d,interp=%v", tc.seed, tc.interp), func(t *testing.T) {
			if tc.interp {
				useEngine(t, sim.EngineInterp)
			}
			chaos := &ChaosSchedule{Seed: tc.seed, PanicRate: 0.3, KillRate: 0.3}
			_, rep := run(t, chaosSetup(chaos, "", nil, symexec.BFS{}))
			if got := Fingerprint(rep); got != want {
				t.Errorf("chaos run diverged from clean run:\nclean: %s\nchaos: %s\npaths %d vs %d, vt %v vs %v",
					want, got, len(clean.Finished), len(rep.Finished),
					clean.VirtualTime, rep.VirtualTime)
			}
			rec := rep.Recovery
			if rec.Requeues == 0 || rec.WorkerRestarts == 0 {
				t.Errorf("chaos injected nothing (requeues=%d restarts=%d) — schedule too tame to prove anything",
					rec.Requeues, rec.WorkerRestarts)
			}
			if rec.PanicsRecovered == 0 {
				t.Errorf("no panics recovered: %+v", rec)
			}
			if rec.FailoverEvents == 0 {
				t.Errorf("no failover events recorded: %+v", rec)
			}
		})
	}
}

// TestChaosHangDeposition: workers that silently stop making progress
// are deposed by the heartbeat monitor and their subtrees recovered,
// again with result identity.
func TestChaosHangDeposition(t *testing.T) {
	_, clean := run(t, chaosSetup(nil, "", nil, symexec.BFS{}))

	setup := chaosSetup(&ChaosSchedule{Seed: 5, HangRate: 0.5}, "", nil, symexec.BFS{})
	setup.Engine.HeartbeatInterval = 2 * time.Millisecond
	_, rep := run(t, setup)

	if got, want := Fingerprint(rep), Fingerprint(clean); got != want {
		t.Errorf("hang-chaos run diverged from clean run (paths %d vs %d, vt %v vs %v)",
			len(rep.Finished), len(clean.Finished), rep.VirtualTime, clean.VirtualTime)
	}
	if rep.Recovery.HeartbeatDeaths == 0 {
		t.Errorf("no heartbeat depositions: %+v", rep.Recovery)
	}
	if rep.Recovery.Requeues == 0 || rep.Recovery.WorkerRestarts == 0 {
		t.Errorf("hung subtrees not recovered: %+v", rep.Recovery)
	}
}

// TestResumeIdentity is the process-death identity gate: a journaled
// campaign killed mid-run (twice), then resumed to completion, must
// report exactly the clean run's results, with the journaled subtrees
// replayed rather than re-explored.
func TestResumeIdentity(t *testing.T) {
	_, clean := run(t, chaosSetup(nil, "", nil, symexec.BFS{}))
	want := Fingerprint(clean)
	jpath := filepath.Join(t.TempDir(), "campaign.hsj")

	// Leg 1: die after 3 subtree completions.
	a, err := Setup(chaosSetup(&ChaosSchedule{DieAfterSubtrees: 3}, jpath, nil, symexec.BFS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("leg 1: err = %v, want ErrInterrupted", err)
	}
	cam, err := LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if cam.Complete {
		t.Fatal("leg 1: campaign claims completion after dying")
	}
	if len(cam.Results) < 3 {
		t.Fatalf("leg 1: journaled %d subtrees, want >= 3", len(cam.Results))
	}

	// Leg 2: resume, die again after 3 more.
	a, err = Setup(chaosSetup(&ChaosSchedule{DieAfterSubtrees: 3}, "", cam, symexec.BFS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("leg 2: err = %v, want ErrInterrupted", err)
	}
	cam2, err := LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(cam2.Results) < len(cam.Results)+3 {
		t.Fatalf("leg 2: journal grew %d -> %d, want +3 or more", len(cam.Results), len(cam2.Results))
	}

	// Leg 3: resume to completion.
	a, err = Setup(chaosSetup(nil, "", cam2, symexec.BFS{}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Engine.Run()
	if err != nil {
		t.Fatalf("leg 3: %v", err)
	}
	if got := Fingerprint(rep); got != want {
		t.Errorf("resumed run diverged from clean run:\nclean: %s\nresumed: %s\npaths %d vs %d, vt %v vs %v",
			want, got, len(clean.Finished), len(rep.Finished), clean.VirtualTime, rep.VirtualTime)
	}
	if rep.Recovery.ResumedSubtrees != len(cam2.Results) {
		t.Errorf("resumed subtrees: %d, want %d", rep.Recovery.ResumedSubtrees, len(cam2.Results))
	}
	if rep.Recovery.JournalRecords == 0 || rep.Recovery.JournalBytes == 0 {
		t.Errorf("journal counters missing: %+v", rep.Recovery)
	}

	// The journal is now complete; resuming it again must be refused.
	cam3, err := LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !cam3.Complete {
		t.Fatal("finished campaign not marked complete")
	}
	a, err = Setup(chaosSetup(nil, "", cam3, symexec.BFS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); err == nil || !strings.Contains(err.Error(), "already complete") {
		t.Fatalf("resume of complete campaign: err = %v, want already-complete refusal", err)
	}
}

// TestResumeTornJournal: a journal torn mid-record (the SIGKILL
// landed inside an append) resumes from the last good record and
// still converges to the clean result.
func TestResumeTornJournal(t *testing.T) {
	_, clean := run(t, chaosSetup(nil, "", nil, symexec.BFS{}))
	jpath := filepath.Join(t.TempDir(), "campaign.hsj")

	a, err := Setup(chaosSetup(&ChaosSchedule{DieAfterSubtrees: 6}, jpath, nil, symexec.BFS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	// Tear the journal: keep two thirds, cutting through whatever
	// record spans the boundary.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	cam, err := LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !cam.Truncated {
		t.Fatal("torn journal not reported truncated")
	}
	a, err = Setup(chaosSetup(nil, "", cam, symexec.BFS{}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Fingerprint(rep), Fingerprint(clean); got != want {
		t.Errorf("torn-journal resume diverged from clean run (paths %d vs %d)",
			len(rep.Finished), len(clean.Finished))
	}
}

// TestResumeRejectsMismatchedConfig: a journal from one configuration
// must not silently merge into a different run.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "campaign.hsj")
	a, err := Setup(chaosSetup(&ChaosSchedule{DieAfterSubtrees: 3}, jpath, nil, symexec.BFS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	cam, err := LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	a, err = Setup(chaosSetup(nil, "", cam, symexec.NewRandom(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); err == nil || !strings.Contains(err.Error(), "resume rejected") {
		t.Fatalf("mismatched resume: err = %v, want identity refusal", err)
	}
}

// TestResumeRefusesDifferentSeedHardware: the same firmware explored
// over another peripheral behind the same region reaches the same
// software seeds (the seed phase ends before the first MMIO access), so
// everything the header pinned before it carried the seed hardware
// digests matches — and the journal's subtree results, computed against
// a gpio, would merge into a run over a timer.
func TestResumeRefusesDifferentSeedHardware(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "campaign.hsj")
	a, err := Setup(chaosSetup(&ChaosSchedule{DieAfterSubtrees: 3}, jpath, nil, symexec.BFS{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	cam, err := LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}

	other := chaosSetup(nil, "", cam, symexec.BFS{})
	other.Peripherals = []target.PeriphConfig{{Name: "gpio0", Periph: "timer"}}
	a, err = Setup(other)
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Engine.Frontier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Close()
	if reflect.DeepEqual(id.SeedSnapshots, cam.Header.SeedSnapshots) {
		t.Fatal("both peripherals snapshot to the same digests: the test proves nothing")
	}
	id.SeedSnapshots = cam.Header.SeedSnapshots
	if !id.Equal(cam.Header) {
		t.Fatalf("the two runs differ in more than seed hardware:\n%+v\n%+v", id, cam.Header)
	}

	a, err = Setup(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); err == nil || !strings.Contains(err.Error(), "resume rejected") {
		t.Fatalf("resume over different seed hardware: err = %v, want refusal", err)
	}
}

// TestJournalSerialDrain: a journaled campaign that finishes inside
// the seed phase still records a complete campaign.
func TestJournalSerialDrain(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "campaign.hsj")
	setup := SetupConfig{
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
		Engine: Config{Searcher: symexec.BFS{}, Workers: 4, JournalPath: jpath},
	}
	_, rep := run(t, setup)
	if len(rep.Finished) != 2 {
		t.Fatalf("paths: %d, want 2", len(rep.Finished))
	}
	cam, err := LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !cam.Complete {
		t.Fatal("serially-drained campaign not marked complete")
	}
}

// TestJournalRequiresParallel: journaling is a parallel-run feature;
// a serial run must refuse it loudly rather than silently skip it.
func TestJournalRequiresParallel(t *testing.T) {
	a, err := Setup(SetupConfig{
		Firmware: "_start:\n\t\thalt\n",
		Engine:   Config{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "j")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Engine.Run(); err == nil || !strings.Contains(err.Error(), "requires Workers > 1") {
		t.Fatalf("err = %v, want journaling-requires-parallel refusal", err)
	}
}
