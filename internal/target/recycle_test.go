package target

import (
	"reflect"
	"testing"

	"hardsnap/internal/vtime"
)

// TestRecyclePristine: a heavily used target, recycled, must be
// indistinguishable from a fresh build — power-on hardware state,
// zero clock, zero stats, no assertions, no violations.
func TestRecyclePristine(t *testing.T) {
	clock := &vtime.Clock{}
	tgt, err := NewSimulator("pool0", clock, []PeriphConfig{
		{Name: "g", Periph: "gpio"},
		{Name: "t", Periph: "timer"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Use it hard: assertion, MMIO traffic, cycles, snapshots.
	if err := tgt.AddAssertion(HWAssertion{
		Name: "never", Periph: "g", Expr: "out != out",
	}); err != nil {
		t.Fatal(err)
	}
	port, err := tgt.Port("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := port.WriteReg(0, 0xEE); err != nil {
		t.Fatal(err)
	}
	if err := tgt.Advance(25); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.Save(); err != nil {
		t.Fatal(err)
	}
	if len(tgt.TakeViolations()) == 0 {
		t.Fatal("workload produced no violations — test too tame")
	}
	if clock.Now() == 0 || tgt.Stats().Cycles == 0 {
		t.Fatal("workload left no trace to wipe")
	}

	if err := tgt.Recycle(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(tgt.snapshotRaw(), tgt.PowerOnState()) {
		t.Fatal("recycled hardware state differs from power-on")
	}
	if clock.Now() != 0 {
		t.Fatalf("clock not rewound: %v", clock.Now())
	}
	if tgt.Stats() != (Stats{}) {
		t.Fatalf("stats not zeroed: %+v", tgt.Stats())
	}
	if len(tgt.asserts) != 0 || tgt.HasAssertions() {
		t.Fatal("assertions survived recycle")
	}
	if len(tgt.TakeViolations()) != 0 {
		t.Fatal("violations survived recycle")
	}

	// And it still works: same observable behavior as a fresh target.
	fresh, err := NewSimulator("fresh", &vtime.Clock{}, []PeriphConfig{
		{Name: "g", Periph: "gpio"},
		{Name: "t", Periph: "timer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*Target{{tgt, fresh}} {
		a, b := pair[0], pair[1]
		pa, _ := a.Port("g")
		pb, _ := b.Port("g")
		if err := pa.WriteReg(0, 0x5A); err != nil {
			t.Fatal(err)
		}
		if err := pb.WriteReg(0, 0x5A); err != nil {
			t.Fatal(err)
		}
		if err := a.Advance(10); err != nil {
			t.Fatal(err)
		}
		if err := b.Advance(10); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.snapshotRaw(), b.snapshotRaw()) {
			t.Fatal("recycled target diverged from fresh target on the same workload")
		}
		if a.Clock().Now() != b.Clock().Now() {
			t.Fatalf("virtual time diverged: %v vs %v", a.Clock().Now(), b.Clock().Now())
		}
	}
}
