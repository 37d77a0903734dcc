package core

import (
	"fmt"

	"hardsnap/internal/isa"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
	"hardsnap/internal/vm"
	"hardsnap/internal/vtime"
)

// ReplayResult is the outcome of concretely re-executing a symbolic
// path's test vector.
type ReplayResult struct {
	// Stop is the concrete VM's stop reason.
	Stop vm.StopReason
	// PC is the final program counter.
	PC uint32
	// Console is the concrete run's console output.
	Console []byte
	// Vector is the injected test vector (per make-symbolic tag).
	Vector map[uint32][]byte
	// Instructions retired (the stopping one included), hardware
	// Cycles run alongside them and IRQs delivered to the CPU.
	Instructions uint64
	Cycles       uint64
	IRQs         int
	// Reproduced reports whether the concrete outcome matches the
	// symbolic state's status (crash reproduction succeeded).
	Reproduced bool
}

// statusMatches maps symbolic statuses to the concrete stop reasons
// that reproduce them.
func statusMatches(sym symexec.Status, concrete vm.StopReason) bool {
	switch sym {
	case symexec.StatusHalted:
		return concrete == vm.StopHalt
	case symexec.StatusAborted:
		return concrete == vm.StopAbort
	case symexec.StatusAssertFail:
		return concrete == vm.StopAssertFail
	case symexec.StatusFault:
		return concrete == vm.StopFault
	}
	return false
}

// Replay extracts a test vector from a finished symbolic state and
// re-executes it concretely against fresh hardware — the paper's
// crash-reproduction / test-case-generation workflow. The analysis'
// own hardware is not disturbed: a new target instance is built from
// the same configuration.
func (a *Analysis) Replay(st *symexec.State) (*ReplayResult, error) {
	vector, ok := a.Exec.TestVector(st)
	if !ok {
		return nil, fmt.Errorf("core: state %d has an infeasible path condition", st.ID)
	}
	return a.ReplayVector(st, vector)
}

// ReplayVector re-executes an explicit test vector concretely and
// compares the outcome against the symbolic state's status. The
// replay rig carries the analysis' hardware assertions, so a
// hardware-property bug reproduces as vm.StopAssertFail.
func (a *Analysis) ReplayVector(st *symexec.State, vector map[uint32][]byte) (*ReplayResult, error) {
	cfg := a.config
	cfg.Target = nil
	rig, err := NewRig("replay", &cfg, snapshot.NewStore())
	if err != nil {
		return nil, err
	}
	cpu := rig.NewCPU(a.Exec.Config().VM)
	if err := cpu.Load(a.Program); err != nil {
		return nil, err
	}
	cpu.OnEcall = func(c *vm.CPU, service int32) bool {
		if service != isa.EcallMakeSymbolic {
			return false
		}
		c.FillInput(vector[c.Regs[3]])
		return true
	}

	_, irqs, err := rig.RunConcrete(cpu, st.Steps*4+10_000, vtime.NativeInstruction, nil)
	if err != nil {
		return nil, err
	}
	if cpu.Stop == vm.StopNone {
		cpu.Stop = vm.StopBudget
	}
	res := &ReplayResult{
		Stop:         cpu.Stop,
		PC:           cpu.PC,
		Console:      append([]byte(nil), cpu.Console...),
		Vector:       vector,
		Instructions: cpu.Cycles,
		IRQs:         irqs,
		Reproduced:   statusMatches(st.Status, cpu.Stop),
	}
	if rig.Target != nil {
		res.Cycles = rig.Target.Stats().Cycles
	}
	return res, nil
}
