package core

import (
	"reflect"
	"slices"
	"testing"

	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
)

func TestCorruptedSnapshotRejected(t *testing.T) {
	a, err := Setup(SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.Target.Save()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(&snapshot.Record{HW: st})
	if err != nil {
		t.Fatal(err)
	}
	// Intact, the bytes decode to the saved state, which restores.
	rec, err := snapshot.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.HW, st) {
		t.Fatal("encode/decode round trip diverged")
	}
	if err := a.Target.Restore(rec.HW); err != nil {
		t.Fatalf("restore of the decoded state: %v", err)
	}
	// Flip one payload bit in transit: the restore path must reject
	// the snapshot with an integrity error, not apply garbage.
	blob[len(blob)-1] ^= 0x10
	if _, err := snapshot.Decode(blob); target.Classify(err) != target.Integrity {
		t.Fatalf("corrupted snapshot decode: %v, want integrity error", err)
	}
	bad := rec.HW // decoded, so a deep copy of st
	l := *bad.Get("gpio0").Layout()
	l.Regs = append(slices.Clone(l.Regs), "phantom_register")
	slices.Sort(l.Regs)
	*bad.Get("gpio0") = *sim.NewHWState(&l, nil)
	if err := a.Target.Restore(bad); target.Classify(err) != target.Integrity {
		t.Fatalf("mismatched snapshot restore: %v, want integrity error", err)
	}
}
