// Package vtime provides the deterministic virtual clock every
// HardSnap component charges its costs to. The original paper reports
// wall-clock measurements on a physical testbed (Verilator on a host
// CPU, a Xilinx FPGA behind a USB 3.0 debugger); this reproduction
// replaces the testbed with a calibrated cost model so that every
// experiment is exactly reproducible. The constants in cost.go are
// calibrated to the orders of magnitude reported in the paper and in
// the INCEPTION paper it builds on; EXPERIMENTS.md discusses the
// calibration.
package vtime

import (
	"fmt"
	"time"
)

// Clock accumulates virtual time. The zero value is a clock at t=0.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative advance %v", d))
	}
	c.now += d
}

// Costs describes the per-operation virtual-time charges of one
// hardware target.
type Costs struct {
	// Cycle is charged per simulated clock cycle.
	Cycle time.Duration
	// IORoundTrip is charged per forwarded MMIO access (bus
	// transaction + transport latency).
	IORoundTrip time.Duration
	// SnapshotFixed is the fixed part of a snapshot save or restore
	// (process freeze for CRIU, command setup for the scan IP).
	SnapshotFixed time.Duration
	// SnapshotPerBit is charged per state bit saved or restored.
	SnapshotPerBit time.Duration
	// DeltaFixed is the fixed part of an incremental (dirty-only)
	// restore, when the target supports one. It replaces
	// SnapshotFixed on that path: no full freeze/dump is needed when
	// only the pages touched since the last anchor are written back.
	// Zero means the target has no delta path.
	DeltaFixed time.Duration
}

// DeltaCost returns the cost of an incremental restore writing back
// `bits` dirty state bits.
func (c Costs) DeltaCost(bits uint) time.Duration {
	return c.DeltaFixed + time.Duration(bits)*c.SnapshotPerBit
}

// SnapshotCost returns the cost of saving or restoring `bits` state
// bits on this target.
func (c Costs) SnapshotCost(bits uint) time.Duration {
	return c.SnapshotFixed + time.Duration(bits)*c.SnapshotPerBit
}
