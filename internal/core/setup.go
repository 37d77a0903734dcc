package core

import (
	"fmt"

	"hardsnap/internal/asm"
	"hardsnap/internal/bus"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// PeriphRegionSize is the MMIO window each peripheral instance
// occupies in the default address map.
const PeriphRegionSize = 0x100

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
	// debugging and the E16 differential runs; results are
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

// Analysis bundles the wired-up components of one run.
type Analysis struct {
	Engine  *Engine
	Target  *target.Target
	Router  *bus.Router
	Exec    *symexec.Executor
	Program *asm.Program
	Clock   *vtime.Clock

	config SetupConfig
}

// PeriphBase returns the MMIO base address of the i-th peripheral in
// the default map.
func (a *Analysis) PeriphBase(i int) uint32 {
	return a.Exec.Config().VM.MMIOBase + uint32(i)*PeriphRegionSize
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
	clock := &vtime.Clock{}

	var tgt *target.Target
	var router *bus.Router
	if cfg.Target != nil || len(cfg.Peripherals) > 0 {
		var err error
		vehicle := cfg.Target
		if vehicle == nil {
			periphs := cfg.Peripherals
			if cfg.Interp {
				periphs = make([]target.PeriphConfig, len(cfg.Peripherals))
				copy(periphs, cfg.Peripherals)
				for i := range periphs {
					periphs[i].Interp = true
				}
			}
			if cfg.FPGA {
				tgt, err = target.NewFPGA("fpga0", clock, periphs, cfg.Readback)
			} else {
				tgt, err = target.NewSimulator("sim0", clock, periphs)
			}
			if err != nil {
				return nil, err
			}
			vehicle = tgt
		} else {
			if lt, ok := vehicle.(*target.Target); ok {
				tgt = lt
			} else if len(cfg.HWAssertions) > 0 {
				return nil, fmt.Errorf("core: hardware assertions require a local target")
			}
			clock = vehicle.Clock()
		}
		exec0, err := symexec.New(cfg.Exec, prog, nil)
		if err != nil {
			return nil, err
		}
		mmioBase := exec0.Config().VM.MMIOBase
		regions := make([]bus.Region, 0, len(cfg.Peripherals))
		for i, pc := range cfg.Peripherals {
			port, err := vehicle.Port(pc.Name)
			if err != nil {
				return nil, err
			}
			regions = append(regions, bus.Region{
				Name: pc.Name,
				Base: mmioBase + uint32(i)*PeriphRegionSize,
				Size: PeriphRegionSize,
				IRQ:  i,
				Port: port,
			})
		}
		router, err = bus.NewRouter(regions)
		if err != nil {
			return nil, err
		}
		for _, a := range cfg.HWAssertions {
			if err := tgt.AddAssertion(a); err != nil {
				return nil, err
			}
		}
		eng, err := New(cfg.Engine, exec0, vehicle, router)
		if err != nil {
			return nil, err
		}
		// The engine owns the clock from the target; align our local
		// reference.
		return &Analysis{
			Engine:  eng,
			Target:  tgt,
			Router:  router,
			Exec:    exec0,
			Program: prog,
			Clock:   clock,
			config:  cfg,
		}, nil
	}

	exec0, err := symexec.New(cfg.Exec, prog, nil)
	if err != nil {
		return nil, err
	}
	eng, err := New(cfg.Engine, exec0, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Analysis{
		Engine:  eng,
		Exec:    exec0,
		Program: prog,
		Clock:   eng.Clock(),
		config:  cfg,
	}, nil
}
