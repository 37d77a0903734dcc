package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hardsnap/internal/core"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

// e14Run runs the E11-style exploration workload at 4 workers with
// the given crash-safety knobs. The returned wall duration is host
// time (journaling and recovery are host-side costs; virtual time is
// part of the identity assertion instead).
func e14Run(journal string, resume *core.Campaign, chaos *core.ChaosSchedule) (*core.Report, time.Duration, error) {
	a, err := core.Setup(core.SetupConfig{
		Firmware:    scalingWorkload(6, 40),
		Peripherals: []target.PeriphConfig{{Name: "g", Periph: "gpio"}},
		FPGA:        true,
		Engine: core.Config{
			Mode:              core.ModeHardSnap,
			Searcher:          symexec.NewRandom(1),
			MaxInstructions:   5_000_000,
			Workers:           4,
			JournalPath:       journal,
			Resume:            resume,
			Chaos:             chaos,
			MaxWorkerRestarts: 200,
		},
	})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	rep, err := a.Engine.Run()
	return rep, time.Since(start), err
}

// E14 regenerates the crash-safety study: journaling overhead, result
// identity under injected worker failures, and kill-recover-resume.
// Every leg must converge to the undisturbed run's fingerprint (bugs,
// paths AND virtual time) — a divergence fails the experiment rather
// than producing a row.
func E14() (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "crash-safe exploration: journal overhead, chaos recovery, kill + resume",
		Columns: []string{"leg", "paths", "virtual time", "identity", "restarts", "requeues",
			"journal", "recovery wall"},
		Notes: []string{
			"identity = fingerprint (per-path status/PC/steps, path count, virtual time) equals the undisturbed run's",
			"journal overhead is host wall time; virtual time is bit-identical by construction and asserted, not measured",
			"chaos events are planned per subtree index from a fixed seed, so the disturbed runs are reproducible",
			"the kill leg stops after 8 subtree completions the way SIGKILL would; the resume leg finishes from the journal",
		},
	}
	dir, err := os.MkdirTemp("", "hsbench-e14-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	clean, _, err := e14Run("", nil, nil)
	if err != nil {
		return nil, fmt.Errorf("E14 baseline: %w", err)
	}
	want := core.Fingerprint(clean)
	row := func(leg string, rep *core.Report, journalB uint64) {
		id := "identical"
		if core.Fingerprint(rep) != want {
			id = "DIVERGED"
		}
		jcell := "-"
		if journalB > 0 {
			jcell = fmt.Sprintf("%d B", journalB)
		}
		t.AddRow(leg, fmt.Sprintf("%d", len(rep.Finished)), dur(rep.VirtualTime), id,
			fmt.Sprintf("%d", rep.Recovery.WorkerRestarts),
			fmt.Sprintf("%d", rep.Recovery.Requeues),
			jcell, dur(rep.Recovery.RecoveryWall))
	}
	row("baseline (undisturbed)", clean, 0)

	// Leg 1: journaling overhead. Identity is asserted; the cost is
	// measured directly — the supervisor times every journal encode,
	// append and fsync (Recovery.JournalWall) — because an
	// A/B wall-clock comparison cannot resolve a cost this small above
	// host scheduling noise.
	jpath := filepath.Join(dir, "overhead.hsj")
	jrep, jWall, err := e14Run(jpath, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("E14 journal leg: %w", err)
	}
	if core.Fingerprint(jrep) != want {
		return nil, fmt.Errorf("E14: journaled run diverged from baseline")
	}
	overhead := float64(jrep.Recovery.JournalWall) / float64(jWall)
	row("journaled", jrep, jrep.Recovery.JournalBytes)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"journal overhead: %.1f%% host wall time (%v of journal work in a %v run; group-committed fsync every %d completions)",
		100*overhead, jrep.Recovery.JournalWall.Round(time.Millisecond),
		jWall.Round(time.Millisecond), 4))
	t.AddMetric("journal_overhead", overhead, "ratio")
	t.AddMetric("journal_wall", float64(jrep.Recovery.JournalWall.Nanoseconds()), "ns")
	t.AddMetric("journal_records", float64(jrep.Recovery.JournalRecords), "records")
	t.AddMetric("journal_bytes", float64(jrep.Recovery.JournalBytes), "bytes")

	// Leg 2: chaos identity. Panics, fatal worker deaths and hangs on
	// ~60% of subtrees' first attempts; supervision must converge to
	// the baseline fingerprint.
	crep, _, err := e14Run("", nil, &core.ChaosSchedule{
		Seed: 7, PanicRate: 0.2, KillRate: 0.2, HangRate: 0.2,
	})
	if err != nil {
		return nil, fmt.Errorf("E14 chaos leg: %w", err)
	}
	if core.Fingerprint(crep) != want {
		return nil, fmt.Errorf("E14: chaos run diverged from baseline")
	}
	row("chaos (panic+kill+hang)", crep, 0)
	t.AddMetric("chaos_worker_restarts", float64(crep.Recovery.WorkerRestarts), "restarts")
	t.AddMetric("chaos_requeues", float64(crep.Recovery.Requeues), "requeues")
	t.AddMetric("chaos_panics_recovered", float64(crep.Recovery.PanicsRecovered), "panics")
	t.AddMetric("chaos_heartbeat_deaths", float64(crep.Recovery.HeartbeatDeaths), "deaths")
	t.AddMetric("chaos_recovery_wall", float64(crep.Recovery.RecoveryWall.Nanoseconds()), "ns")

	// Leg 3: kill + resume. The first process journals and "dies" after
	// 8 subtree completions; a second process resumes the journal and
	// must finish with the baseline fingerprint. The latency metric is
	// the host time to come back from the dead: load the journal plus
	// re-run only what the first process had not completed.
	kpath := filepath.Join(dir, "killed.hsj")
	_, _, err = e14Run(kpath, nil, &core.ChaosSchedule{DieAfterSubtrees: 8})
	if !errors.Is(err, core.ErrInterrupted) {
		return nil, fmt.Errorf("E14 kill leg: got %v, want interruption", err)
	}
	resumeStart := time.Now()
	cam, err := core.LoadCampaign(kpath)
	if err != nil {
		return nil, fmt.Errorf("E14 resume leg: %w", err)
	}
	rrep, _, err := e14Run("", cam, nil)
	if err != nil {
		return nil, fmt.Errorf("E14 resume leg: %w", err)
	}
	resumeLatency := time.Since(resumeStart)
	if core.Fingerprint(rrep) != want {
		return nil, fmt.Errorf("E14: resumed run diverged from baseline")
	}
	row(fmt.Sprintf("killed after 8 + resumed (%d replayed)", rrep.Recovery.ResumedSubtrees),
		rrep, rrep.Recovery.JournalBytes)
	t.AddMetric("resume_replayed_subtrees", float64(rrep.Recovery.ResumedSubtrees), "subtrees")
	t.AddMetric("resume_latency", float64(resumeLatency.Nanoseconds()), "ns")
	t.AddMetric("baseline_virt_time", float64(clean.VirtualTime.Nanoseconds()), "ns")
	t.AddMetric("baseline_paths", float64(len(clean.Finished)), "paths")
	return t, nil
}
