package vtime

import "time"

// Calibration constants. All targets execute the same RTL; what
// differs is how expensive each operation is in virtual time.
//
// Sources for the orders of magnitude:
//   - Verilator-class simulators retire ~0.1-1 M design cycles/s for
//     small peripherals on a desktop CPU -> ~2 µs/cycle.
//   - An FPGA emulates the design at ~100 MHz -> 10 ns/cycle.
//   - The INCEPTION USB 3.0 debugger achieves a few µs to tens of µs
//     per 32-bit transaction -> 30 µs/IO for the FPGA path; the
//     simulator is reached through shared memory -> ~1 µs/IO.
//   - CRIU checkpoint of a small process costs tens of ms fixed plus
//     copy time; the scan chain costs 1 FPGA cycle/bit at the scan
//     clock (50 MHz) plus command overhead; readback dumps the whole
//     fabric at a fixed ~8 ms regardless of design size.
const (
	SimCycle          = 2 * time.Microsecond
	SimIORoundTrip    = 1 * time.Microsecond
	SimSnapshotFixed  = 20 * time.Millisecond // CRIU freeze+dump fixed cost
	SimSnapshotPerBit = 2 * time.Nanosecond   // memory copy

	// SimDeltaFixed is the fixed cost of an incremental restore on the
	// simulator target: with the process kept resident, writing back
	// only the dirty pages of the tracked state needs no CRIU
	// freeze+dump, just a soft-dirty walk and copy (hundreds of µs,
	// CRIU pre-dump/incremental scale).
	SimDeltaFixed = 200 * time.Microsecond

	FPGACycle          = 10 * time.Nanosecond
	FPGAIORoundTrip    = 30 * time.Microsecond
	FPGAScanClock      = 20 * time.Nanosecond // 50 MHz scan clock
	FPGAScanCmdLatency = 60 * time.Microsecond

	// ReadbackFixed is the full-fabric readback/writeback time of a
	// high-end FPGA: constant in the design size because the whole
	// fabric frame set is transferred.
	ReadbackFixed = 8 * time.Millisecond

	// RebootTime is a full platform reboot (power cycle + firmware
	// boot), the reset mechanism the naive-and-consistent baseline
	// must pay between test cases (Muench et al. report seconds; we
	// use a conservative half second).
	RebootTime = 500 * time.Millisecond

	// VMInstruction is the symbolic VM's cost to retire one firmware
	// instruction (interpretation dominated).
	VMInstruction = 1 * time.Microsecond

	// NativeInstruction is the cost of one firmware instruction when
	// fast-forwarding concretely (near-native speed, ~50 MIPS) —
	// the "Fast Forwarding" capability of Table I.
	NativeInstruction = 20 * time.Nanosecond
)

// SimCosts returns the simulator target's cost table.
func SimCosts() Costs {
	return Costs{
		Cycle:          SimCycle,
		IORoundTrip:    SimIORoundTrip,
		SnapshotFixed:  SimSnapshotFixed,
		SnapshotPerBit: SimSnapshotPerBit,
		DeltaFixed:     SimDeltaFixed,
	}
}

// FPGAScanCosts returns the FPGA target's cost table when snapshots
// use the inserted scan chain.
func FPGAScanCosts() Costs {
	return Costs{
		Cycle:          FPGACycle,
		IORoundTrip:    FPGAIORoundTrip,
		SnapshotFixed:  FPGAScanCmdLatency,
		SnapshotPerBit: FPGAScanClock,
	}
}

// FPGAReadbackCosts returns the FPGA target's cost table when
// snapshots use the vendor readback feature (fixed full-fabric cost).
func FPGAReadbackCosts() Costs {
	return Costs{
		Cycle:          FPGACycle,
		IORoundTrip:    FPGAIORoundTrip,
		SnapshotFixed:  ReadbackFixed,
		SnapshotPerBit: 0,
	}
}
