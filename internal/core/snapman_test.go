package core

import (
	"testing"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

// liveSnapshots counts the IDs the engine's store still holds. The
// store issues IDs in sequence from 1 and counts a put for each, so
// probing 1..Puts finds every live one.
func liveSnapshots(e *Engine) int {
	n := 0
	for id := uint64(1); id <= e.snaps.Stats().Puts; id++ {
		if _, ok := e.snaps.DigestOf(snapshot.ID(id)); ok {
			n++
		}
	}
	return n
}

// TestSnapshotManagerSkipsIdleSwitches: with round-robin scheduling,
// many context switches happen while the scheduled-out path has not
// touched hardware since its last sync. The generation check must turn
// those into zero-cost skips instead of full save/restore traffic.
func TestSnapshotManagerSkipsIdleSwitches(t *testing.T) {
	_, rep := run(t, SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Engine: Config{
			Mode:            ModeHardSnap,
			Searcher:        &symexec.RoundRobin{},
			MaxInstructions: 100000,
		},
	})
	if rep.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatalf("run incomplete: %+v", rep.Stats)
	}
	m := rep.Snapshots.Manager
	if m.SavesSkipped == 0 && m.RestoresSkipped == 0 {
		t.Fatalf("no context switches skipped: %+v", m)
	}
	// Skips must be real savings: fewer hardware operations than
	// manager-level requests.
	if rep.Snapshots.HWSaves >= m.Saves+m.SavesSkipped &&
		m.SavesSkipped > 0 {
		t.Fatalf("skipped saves still reached hardware: hw=%d mgr=%+v",
			rep.Snapshots.HWSaves, m)
	}
}

// TestSnapshotManagerForkDedups: a fork duplicates the parent's
// hardware snapshot reference. The content-addressed store must serve
// that as a refcount bump on one shared entry, never a second copy.
func TestSnapshotManagerForkDedups(t *testing.T) {
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
	ss := rep.Snapshots.Store
	if ss.DedupHits == 0 {
		t.Fatalf("no dedup hits across fork/sync: %+v", ss)
	}
	if live := liveSnapshots(a.Engine); live != 0 {
		t.Fatalf("leaked %d snapshots", live)
	}
}

// TestSnapshotTrafficReportedOnlyWithHardware: software-only runs must
// leave the traffic section zeroed rather than invented.
func TestSnapshotTrafficReportedOnlyWithHardware(t *testing.T) {
	_, rep := run(t, SetupConfig{Firmware: "_start:\n halt"})
	if rep.Snapshots.Manager.Saves != 0 || rep.Snapshots.BytesMoved != 0 {
		t.Fatalf("software-only run reported snapshot traffic: %+v", rep.Snapshots)
	}
}
