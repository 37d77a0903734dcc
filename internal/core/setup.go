package core

import (
	"fmt"

	"hardsnap/internal/asm"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// SetupConfig assembles a complete analysis: firmware, SoC peripherals
// and engine/executor parameters.
type SetupConfig struct {
	// Firmware is HS32 assembly source.
	Firmware string
	// FirmwareBase is the load address (default 0).
	FirmwareBase uint32
	// Peripherals are placed at MMIOBase + i*PeriphRegionSize with
	// IRQ line i.
	Peripherals []target.PeriphConfig
	// Target, when set, is a pre-built execution vehicle — a
	// remote.TargetClient or a pooled *target.Target — used instead of
	// constructing a local simulator/FPGA. Peripherals then only lay
	// out the bus regions and must name ports the target exposes, in
	// the target's index order. HWAssertions require the vehicle to be
	// a concrete *target.Target.
	Target target.Interface
	// FPGA selects the FPGA target instead of the simulator.
	FPGA bool
	// Interp forces the interpreter RTL engine on every locally built
	// peripheral instead of the compiled-bytecode default. Used for
	// debugging and the engine-identity tests; results are
	// bit-identical either way, only speed differs.
	Interp bool
	// Readback selects the readback snapshot method on the FPGA.
	Readback bool
	// HWAssertions are hardware properties checked every cycle
	// (simulator target only).
	HWAssertions []target.HWAssertion
	// Exec configures the symbolic executor.
	Exec symexec.Config
	// Engine configures the engine.
	Engine Config
}

// Analysis bundles the wired-up components of one run. Target (nil
// for software-only firmware and for a vehicle that is not in
// process) and Clock are the rig's.
type Analysis struct {
	Engine  *Engine
	Rig     *Rig
	Target  *target.Target
	Exec    *symexec.Executor
	Program *asm.Program
	Clock   *vtime.Clock

	config SetupConfig
}

// Setup assembles the firmware, builds the target and bus, and wires
// the engine.
func Setup(cfg SetupConfig) (*Analysis, error) {
	prog, err := asm.Assemble(cfg.Firmware, cfg.FirmwareBase)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return SetupProgram(cfg, prog)
}

// SetupProgram is Setup for a pre-assembled program.
func SetupProgram(cfg SetupConfig, prog *asm.Program) (*Analysis, error) {
	rig, err := NewRig("soc0", &cfg, snapshot.NewStore())
	if err != nil {
		return nil, err
	}
	exec0, err := symexec.New(cfg.Exec, prog, nil)
	if err != nil {
		return nil, err
	}
	return &Analysis{
		Engine:  New(cfg.Engine, exec0, rig),
		Target:  rig.local,
		Exec:    exec0,
		Program: prog,
		Clock:   rig.Clock,
		Rig:     rig,
		config:  cfg,
	}, nil
}
