package core

import (
	"fmt"
	"time"

	"hardsnap/internal/bus"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vm"
	"hardsnap/internal/vtime"
)

// PeriphRegionSize is the MMIO window each peripheral instance
// occupies in the address map.
const PeriphRegionSize = 0x100

// CyclesPerInstruction is how far the hardware clock advances per
// retired firmware instruction, keeping peripherals running
// concurrently with software.
const CyclesPerInstruction = 1

// Rig is one wired machine: an execution vehicle, the bus router that
// maps its peripherals into the CPU's MMIO window, the snapshot
// manager over both, and the virtual clock they charge. Every tool —
// symbolic engine, parallel workers, fast-forward, replay, fuzzer,
// farm pool — gets its machine from NewRig or Spawn and clocks it with
// Tick, so the memory map and the clocking policy are decided here and
// nowhere else. Target, Router and Snaps are nil for software-only
// firmware.
type Rig struct {
	Target target.Interface
	Router *bus.Router
	Snaps  *SnapshotManager
	Clock  *vtime.Clock

	// local is Target when it is an in-process one.
	local *target.Target
	// swClock is what Clock points at without a vehicle (one
	// allocation for a software-only rig).
	swClock vtime.Clock
	// irqWired is false when no mapped peripheral can ever drive its
	// interrupt line (known for in-process vehicles only).
	irqWired bool
}

// NewRig wires the machine cfg describes. The vehicle is cfg.Target
// when injected, otherwise a simulator or FPGA target called name
// built from cfg.Peripherals (FPGA, Readback); peripheral i
// is mapped at MMIOBase + i*PeriphRegionSize with IRQ line i, and
// cfg.HWAssertions are registered on the vehicle. store backs the
// snapshot manager.
func NewRig(name string, cfg *SetupConfig, store *snapshot.Store) (*Rig, error) {
	vehicle := cfg.Target
	// Normalize a typed-nil *target.Target handed in through the
	// interface, so every `Target != nil` guard stays honest.
	local, isLocal := vehicle.(*target.Target)
	if isLocal && local == nil {
		vehicle = nil
	}
	if vehicle == nil {
		if len(cfg.Peripherals) == 0 {
			return softwareRig(), nil
		}
		var err error
		if cfg.FPGA {
			local, err = target.NewFPGA(name, &vtime.Clock{}, cfg.Peripherals, cfg.Readback)
		} else {
			local, err = target.NewSimulator(name, &vtime.Clock{}, cfg.Peripherals)
		}
		if err != nil {
			return nil, err
		}
		vehicle = local
	}
	if local == nil && len(cfg.HWAssertions) > 0 {
		return nil, fmt.Errorf("core: hardware assertions require a local target")
	}
	for _, a := range cfg.HWAssertions {
		if err := local.AddAssertion(a); err != nil {
			return nil, err
		}
	}
	mmioBase := cfg.Exec.VM.WithDefaults().MMIOBase
	regions := make([]bus.Region, len(cfg.Peripherals))
	for i, pc := range cfg.Peripherals {
		regions[i] = bus.Region{
			Name: pc.Name,
			Base: mmioBase + uint32(i)*PeriphRegionSize,
			Size: PeriphRegionSize,
			IRQ:  i,
		}
	}
	return wire(vehicle, regions, store)
}

// Spawn clones the rig for a worker: a private vehicle spawned from
// this one, the same memory map over the clone's ports, and a snapshot
// manager of its own over the shared store.
func (r *Rig) Spawn(name string) (*Rig, error) {
	if r.Target == nil {
		return softwareRig(), nil
	}
	wtgt, err := r.Target.SpawnWorker(name, &vtime.Clock{}, 0)
	if err != nil {
		return nil, fmt.Errorf("core: spawn %s: %w", name, err)
	}
	w, err := wire(wtgt, r.Router.Regions(), r.Snaps.Store())
	if err != nil {
		return nil, fmt.Errorf("core: spawn %s: %w", name, err)
	}
	return w, nil
}

// softwareRig is the machine of software-only firmware: a clock.
func softwareRig() *Rig {
	r := &Rig{}
	r.Clock = &r.swClock
	return r
}

// wire binds the regions to the vehicle's ports and assembles the rig.
func wire(vehicle target.Interface, regions []bus.Region, store *snapshot.Store) (*Rig, error) {
	r := &Rig{Target: vehicle, Clock: vehicle.Clock()}
	r.local, _ = vehicle.(*target.Target)
	r.irqWired = r.local == nil
	for i := range regions {
		port, err := vehicle.Port(regions[i].Name)
		if err != nil {
			return nil, err
		}
		regions[i].Port = port
		if r.local != nil && r.local.IRQWired(regions[i].Name) {
			r.irqWired = true
		}
	}
	var err error
	if r.Router, err = bus.NewRouter(regions); err != nil {
		return nil, err
	}
	r.Snaps = NewSnapshotManager(store, vehicle, r.Router)
	return r, nil
}

// NewCPU returns a concrete CPU whose MMIO window is the rig's bus.
func (r *Rig) NewCPU(cfg vm.Config) *vm.CPU {
	if r.Router == nil {
		return vm.New(cfg, nil)
	}
	return vm.New(cfg, r.Router)
}

// Tick runs the hardware alongside one retired instruction — the
// clocking policy of every execution loop: advance the peripherals
// CyclesPerInstruction cycles, append the IRQ lines that rose to irqs
// (the caller's buffer, so a hot loop allocates nothing) for the
// caller to deliver, then drain the hardware-property violations the
// instruction and those cycles produced. Requires a vehicle.
// Sampling is skipped when no line can rise.
func (r *Rig) Tick(irqs []int) ([]int, []target.Violation, error) {
	if err := r.Target.Advance(CyclesPerInstruction); err != nil {
		return nil, nil, err
	}
	if r.irqWired {
		var err error
		if irqs, err = r.Router.RisingIRQsInto(irqs); err != nil {
			return nil, nil, err
		}
	}
	return irqs, r.Target.TakeViolations(), nil
}

// RunConcrete is the one concrete execution loop, shared by the fuzz
// worker, fast-forward and replay: step cpu, charge cost per retired
// instruction, tick the hardware, deliver rising interrupts, turn a
// hardware-property violation into vm.StopAssertFail, then call
// stepped (nil: never) with the PC the step started from; false from
// it ends the run. It also returns when the CPU stops or budget
// instructions have retired. irqs counts the interrupts delivered.
func (r *Rig) RunConcrete(cpu *vm.CPU, budget uint64, cost time.Duration, stepped func(pc uint32) bool) (steps uint64, irqs int, err error) {
	var buf [vm.NumIRQs]int
	for cpu.Stop == vm.StopNone && steps < budget {
		pc := cpu.PC
		if !cpu.Step() {
			break
		}
		steps++
		r.Clock.Advance(cost)
		if r.Target != nil {
			fired, violations, err := r.Tick(buf[:0])
			if err != nil {
				return steps, irqs, err
			}
			for _, n := range fired {
				cpu.RaiseIRQ(n)
			}
			irqs += len(fired)
			if len(violations) > 0 {
				cpu.Stop = vm.StopAssertFail
			}
		}
		if stepped != nil && !stepped(pc) {
			break
		}
	}
	return steps, irqs, nil
}
