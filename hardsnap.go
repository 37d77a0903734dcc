// Package hardsnap is a pure-Go reproduction of "HardSnap: Leveraging
// Hardware Snapshotting for Embedded Systems Security Testing"
// (Corteggiani & Francillon, DSN 2020): a hardware/software co-testing
// framework in which a selective symbolic virtual machine executes
// firmware while every execution path owns a private snapshot of the
// peripheral hardware state.
//
// The package is a facade over the implementation packages:
//
//   - Setup/Run an analysis: firmware (HS32 assembly) + peripherals
//     (Verilog, simulated cycle-accurately) + engine mode;
//   - four consistency modes (HardSnap, naive-reboot, naive-shared,
//     record-replay) reproducing the paper's Fig. 1 and related work;
//   - two hardware targets (software simulator with full visibility,
//     FPGA model with scan-chain or readback snapshotting);
//   - hardware property assertions (Verilog expressions over
//     peripheral internals, checked every cycle) for detecting
//     peripheral misuse with solver-generated test vectors;
//   - a coverage-guided fuzzer with snapshot-based state reset.
//
// See the examples directory for runnable end-to-end scenarios and
// DESIGN.md for the architecture.
package hardsnap

import (
	"hardsnap/internal/asm"
	"hardsnap/internal/core"
	"hardsnap/internal/fuzz"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vm"
)

// Analysis setup and engine.
type (
	// SetupConfig describes a complete analysis (firmware, SoC,
	// engine and executor parameters).
	SetupConfig = core.SetupConfig
	// Analysis bundles the wired-up components of one run.
	Analysis = core.Analysis
	// EngineConfig parameterizes the engine.
	EngineConfig = core.Config
	// Mode selects the hardware consistency strategy.
	Mode = core.Mode
	// Report is the outcome of an engine run.
	Report = core.Report
)

// Engine modes (Fig. 1 of the paper).
const (
	ModeHardSnap     = core.ModeHardSnap
	ModeNaiveReboot  = core.ModeNaiveReboot
	ModeNaiveShared  = core.ModeNaiveShared
	ModeRecordReplay = core.ModeRecordReplay
)

// Setup assembles the firmware, builds the hardware target and bus,
// and wires the analysis engine. Optionally call Analysis.FastForward
// before Engine.Run to execute the deterministic init prefix
// concretely at native speed (the paper's fast-forwarding).
func Setup(cfg SetupConfig) (*Analysis, error) { return core.Setup(cfg) }

// Symbolic execution.
type (
	// ExecConfig parameterizes the symbolic executor.
	ExecConfig = symexec.Config
	// State is one symbolic execution state.
	State = symexec.State
	// Searcher picks the next state to run.
	Searcher = symexec.Searcher
	// DFS continues the most recent state.
	DFS = symexec.DFS
	// BFS explores in creation order.
	BFS = symexec.BFS
	// RoundRobin steps every state in turn.
	RoundRobin = symexec.RoundRobin
)

// Concretization policies at the hardware boundary.
const (
	ConcretizeOne = symexec.ConcretizeOne
	ConcretizeAll = symexec.ConcretizeAll
)

// State statuses.
const (
	StatusRunning    = symexec.StatusRunning
	StatusHalted     = symexec.StatusHalted
	StatusAborted    = symexec.StatusAborted
	StatusAssertFail = symexec.StatusAssertFail
	StatusFault      = symexec.StatusFault
)

// Hardware targets.
type (
	// PeriphConfig selects one peripheral instance for a target.
	PeriphConfig = target.PeriphConfig
	// Target hosts peripherals on one execution vehicle.
	Target = target.Target
	// HWState is a portable whole-target snapshot.
	HWState = target.State
	// HWAssertion is a hardware property (Verilog expression over
	// peripheral signals) checked every cycle on the simulator target.
	HWAssertion = target.HWAssertion
	// Violation reports one failed hardware assertion.
	Violation = target.Violation
)

// Target robustness: a fault schedule armed on a Target's link
// (Target.InjectFaults), absorbed by a fixed retry policy (4 retries,
// doubling backoff) and a health check; a link that fails the check
// leaves the target dead, and every operation on it fails fatally.
type (
	// FaultSchedule deterministically describes link misbehavior
	// (dropped frames, corruption, jitter, permanent death).
	FaultSchedule = target.FaultSchedule
	// TargetStats are cumulative target-side counters (cycles, IO,
	// snapshots, retries, injected faults).
	TargetStats = target.Stats
	// TargetError is a typed target failure carrying its class
	// (transient, fatal, integrity).
	TargetError = target.Error
)

// IsTransient reports a retry-worthy target or remote fault (dropped
// or corrupted frame, timeout).
var IsTransient = target.IsTransient

// Assembler.
type (
	// Program is an assembled firmware image.
	Program = asm.Program
)

// Assemble translates HS32 assembly into a firmware image loaded at
// base.
func Assemble(src string, base uint32) (*Program, error) {
	return asm.Assemble(src, base)
}

// Fuzzing.
type (
	// FuzzConfig parameterizes a fuzzing campaign.
	FuzzConfig = fuzz.Config
	// FuzzResult summarizes a campaign.
	FuzzResult = fuzz.Result
	// Crash describes one crashing input.
	Crash = fuzz.Crash
)

// Fuzz reset strategies.
const (
	ResetReboot   = fuzz.ResetReboot
	ResetSnapshot = fuzz.ResetSnapshot
	ResetNone     = fuzz.ResetNone
)

// Fuzz runs a coverage-guided fuzzing campaign.
func Fuzz(cfg FuzzConfig) (*FuzzResult, error) { return fuzz.Run(cfg) }

// Concrete VM (used by the fuzzer; exposed for custom harnesses).
type (
	// CPU is the concrete HS32 machine.
	CPU = vm.CPU
	// VMConfig describes the machine memory layout.
	VMConfig = vm.Config
)
