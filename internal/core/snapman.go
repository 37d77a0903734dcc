package core

import (
	"fmt"

	"hardsnap/internal/bus"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
)

// SnapshotManager is the copy-on-write seam between the engine's
// context switches and the hardware: it pairs the content-addressed
// snapshot store with the target's mutation generation so the
// expensive operations — FPGA scan-out/scan-in, CRIU freeze+copy and
// their virtual-time charges — only happen when the hardware actually
// changed.
//
// Three mechanisms stack:
//
//  1. generation skip: the manager remembers the digest of the state
//     currently living on the hardware and the target generation at
//     which it was accurate. While the generation has not moved, a
//     save of the live state is a refcount operation and a restore of
//     the same content is a no-op — zero link traffic, zero vtime;
//  2. content dedup: saves that do reach the store collapse to
//     existing entries when the state is byte-identical (fork =
//     refcount++), with per-peripheral structural sharing below that;
//  3. delta restore: when restoring the exact record the target's
//     dirty tracking is anchored on, only the elements touched since
//     that anchor are written back, at the incremental cost
//     (simulator target only; scan chains and readback always move
//     the whole fabric).
type SnapshotManager struct {
	store  *snapshot.Store
	tgt    target.Interface
	router *bus.Router

	// live tracks what the hardware currently holds: the digest of
	// the last state saved from or restored to it, valid while the
	// target generation still equals liveGen. That save or restore
	// also re-anchored the target's dirty tracking on the same record,
	// at anchor sequence anchorSeq: a delta restore is sound only
	// against that record, and only while the sequence has not moved.
	liveValid  bool
	liveDigest snapshot.Digest
	liveGen    uint64
	anchorSeq  uint64

	stats SnapManagerStats
}

// SnapManagerStats counts how context-switch traffic was served.
type SnapManagerStats struct {
	// Saves / Restores are operations that reached the hardware
	// (Restores includes DeltaRestores).
	Saves    uint64
	Restores uint64
	// SavesSkipped / RestoresSkipped were proven redundant by the
	// mutation generation and served without touching the hardware.
	SavesSkipped    uint64
	RestoresSkipped uint64
	// DeltaRestores were served by the dirty-only incremental path.
	DeltaRestores uint64
}

// NewSnapshotManager builds a manager over the given store, target
// and interrupt router. The target may be remote: generation-proven
// skips and digest checks run entirely client-side against the
// piggybacked counters, and delta restores negotiate only the dirty
// peripheral chunks over the wire.
func NewSnapshotManager(store *snapshot.Store, tgt target.Interface, router *bus.Router) *SnapshotManager {
	return &SnapshotManager{store: store, tgt: tgt, router: router}
}

// Store exposes the underlying snapshot store (diagnostics).
func (m *SnapshotManager) Store() *snapshot.Store { return m.store }

// Forget drops the manager's belief about what the hardware currently
// holds and what the dirty tracking is anchored on. The next restore
// is a full one and the next save a full scan-out. The parallel
// engine calls this at every subtree boundary so a subtree's snapshot
// traffic — and therefore its virtual time — is a pure function of
// the subtree itself, never of which subtrees happened to run on the
// same rig before it (claim order is racy; reported time must not be).
func (m *SnapshotManager) Forget() { m.liveValid = false }

// Stats returns a copy of the manager's counters.
func (m *SnapshotManager) Stats() SnapManagerStats { return m.stats }

// liveCurrent reports whether the hardware is still bit-identical to
// the state recorded in liveDigest.
func (m *SnapshotManager) liveCurrent() bool {
	return m.liveValid && m.tgt.Generation() == m.liveGen
}

// setLive records that the hardware holds, and its dirty tracking is
// anchored on, the record with digest d.
func (m *SnapshotManager) setLive(d snapshot.Digest) {
	m.liveValid = true
	m.liveDigest = d
	m.liveGen = m.tgt.Generation()
	m.anchorSeq = m.tgt.AnchorSeq()
}

// snapLive performs a full hardware save and wraps it in a record.
func (m *SnapshotManager) snapLive() (snapshot.Record, error) {
	hw, err := m.tgt.Save()
	if err != nil {
		return snapshot.Record{}, err
	}
	m.stats.Saves++
	return snapshot.Record{HW: hw, IRQEdges: m.router.IRQEdgeState()}, nil
}

// Capture stores the live hardware state under a new ID (fork, or the
// first save of a state). If the hardware has not mutated since the
// last save/restore, no scan-out or state copy happens at all: the
// new ID adopts the already-stored content for a refcount increment.
func (m *SnapshotManager) Capture() (snapshot.ID, error) {
	if m.liveCurrent() {
		if id, ok := m.store.Adopt(m.liveDigest); ok {
			m.stats.SavesSkipped++
			return id, nil
		}
	}
	rec, err := m.snapLive()
	if err != nil {
		return 0, err
	}
	id, d := m.store.PutDigest(rec)
	m.setLive(d)
	return id, nil
}

// Sync makes the snapshot slot id hold the live hardware state
// (UpdateState of Algorithm 1), allocating a slot when id is 0. When
// the hardware is untouched since the slot was last synced the call
// is free; when it is untouched but the slot holds other content, the
// slot is re-pointed at the live content without touching the
// hardware. The (possibly new) slot ID is returned.
func (m *SnapshotManager) Sync(id snapshot.ID) (snapshot.ID, error) {
	if id == 0 {
		return m.Capture()
	}
	if m.liveCurrent() && m.store.UpdateToDigest(id, m.liveDigest) {
		m.stats.SavesSkipped++
		return id, nil
	}
	rec, err := m.snapLive()
	if err != nil {
		return 0, err
	}
	d, err := m.store.Update(id, rec)
	if err != nil {
		return 0, err
	}
	m.setLive(d)
	return id, nil
}

// Restore loads snapshot id into the hardware (RestoreState of
// Algorithm 1). Restore(0) is a no-op: 0 is the "no snapshot"
// sentinel of the initial state, which keeps the power-on hardware.
// A restore of the content already living on untouched hardware is
// skipped entirely; a restore of the record the target's dirty
// tracking is anchored on goes through the incremental path.
func (m *SnapshotManager) Restore(id snapshot.ID) error {
	if id == 0 {
		return nil
	}
	var have snapshot.Digest // the zero digest names no content
	if m.liveCurrent() {
		have = m.liveDigest
	}
	rec, d, ok := m.store.Fetch(id, have)
	if !ok {
		return fmt.Errorf("core: restore of missing snapshot %d", id)
	}
	if rec == nil {
		// The hardware still holds exactly this content; the router's
		// edge detectors are stable too (IRQ levels derive from the
		// unchanged hardware state and the edge levels are part of
		// the digest).
		m.stats.RestoresSkipped++
		return nil
	}
	restored := false
	if m.liveValid && d == m.liveDigest && m.tgt.AnchorSeq() == m.anchorSeq {
		// Restoring the exact record the dirty tracking is anchored
		// on: only elements touched since then need writing back.
		did, err := m.tgt.RestoreDelta(rec.HW)
		if err != nil {
			return err
		}
		if did {
			m.stats.DeltaRestores++
			restored = true
		}
	}
	if !restored {
		if err := m.tgt.Restore(rec.HW); err != nil {
			return err
		}
	}
	m.stats.Restores++
	m.router.ResetIRQEdges(rec.IRQEdges)
	m.setLive(d)
	return nil
}

// LiveRecord returns a record of the current hardware state without
// allocating a store ID (crash reports). When the hardware is
// untouched since the last save/restore and that content is still
// stored, the canonical record is returned with no hardware traffic.
func (m *SnapshotManager) LiveRecord() (*snapshot.Record, error) {
	if m.liveCurrent() {
		if rec, ok := m.store.RecordByDigest(m.liveDigest); ok {
			m.stats.SavesSkipped++
			return rec, nil
		}
	}
	rec, err := m.snapLive()
	if err != nil {
		return nil, err
	}
	d := snapshot.DigestRecord(&rec)
	m.setLive(d)
	return &rec, nil
}
