package vtime

import (
	"testing"
	"time"
)

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock must start at 0")
	}
	c.Advance(3 * time.Millisecond)
	c.Advance(2 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("now %v", c.Now())
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance must panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestSnapshotCostShapes(t *testing.T) {
	scan := FPGAScanCosts()
	rb := FPGAReadbackCosts()
	sim := SimCosts()

	// Scan scales linearly with bits; readback does not.
	small, large := uint(100), uint(100_000)
	if scan.SnapshotCost(large)-scan.SnapshotCost(small) !=
		time.Duration(large-small)*FPGAScanClock {
		t.Fatal("scan cost not linear in bits")
	}
	if rb.SnapshotCost(small) != rb.SnapshotCost(large) {
		t.Fatal("readback cost must be size-independent")
	}

	// Crossover: for small designs scan wins, for huge ones readback
	// wins — the trade-off motivating both methods in the paper.
	if scan.SnapshotCost(small) >= rb.SnapshotCost(small) {
		t.Fatal("scan should win for small designs")
	}
	crossBits := uint((ReadbackFixed - FPGAScanCmdLatency) / FPGAScanClock)
	if scan.SnapshotCost(crossBits+1000) <= rb.SnapshotCost(crossBits+1000) {
		t.Fatal("readback should win past the crossover")
	}

	// Per-cycle cost ordering: FPGA executes far faster than the
	// simulator.
	if FPGACycle*100 > SimCycle {
		t.Fatal("FPGA cycle should be orders of magnitude cheaper")
	}
	if sim.IORoundTrip >= FPGAIORoundTrip {
		t.Fatal("shared-memory I/O should be cheaper than USB3 I/O")
	}
}
