package target

import (
	"reflect"
	"testing"

	"hardsnap/internal/vtime"
)

func spawnParent(t *testing.T) *Target {
	t.Helper()
	tgt, err := NewSimulator("parent", &vtime.Clock{}, []PeriphConfig{
		{Name: "g", Periph: "gpio"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestSpawnPowerOnIdentical(t *testing.T) {
	parent := spawnParent(t)
	// Dirty the parent so the clone cannot accidentally inherit live
	// state: Spawn must come up at power-on, not at the parent's now.
	port, err := parent.Port("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := port.WriteReg(0, 0xAB); err != nil {
		t.Fatal(err)
	}
	clone, err := parent.Spawn("w0", &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clone.snapshotRaw(), parent.powerOn) {
		t.Fatal("spawned clone does not match parent power-on state")
	}
	// Clone is independent: writing it must not touch the parent.
	cp, err := clone.Port("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.WriteReg(0, 0x55); err != nil {
		t.Fatal(err)
	}
	v, err := port.ReadReg(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xAB {
		t.Fatalf("parent state changed by clone write: %#x", v)
	}
}

func TestSpawnAdoptState(t *testing.T) {
	parent := spawnParent(t)
	port, _ := parent.Port("g")
	if err := port.WriteReg(0, 0x77); err != nil {
		t.Fatal(err)
	}
	live, err := parent.Save()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := parent.Spawn("w0", &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	before := clone.Clock().Now()
	if err := clone.AdoptState(live); err != nil {
		t.Fatal(err)
	}
	if clone.Clock().Now() != before {
		t.Fatal("AdoptState must not charge virtual time")
	}
	cp, _ := clone.Port("g")
	v, err := cp.ReadReg(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x77 {
		t.Fatalf("adopted state not applied: %#x", v)
	}
}
