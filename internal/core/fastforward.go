package core

import (
	"fmt"

	"hardsnap/internal/isa"
	"hardsnap/internal/vm"
)

// FastForwardResult describes the hand-off point of a fast-forward
// phase.
type FastForwardResult struct {
	// Instructions retired concretely.
	Instructions uint64
	// Reached reports what ended the phase: a snapshot hint, a
	// make-symbolic request, or termination.
	Reached FastForwardStop
	// PC is the symbolic start address.
	PC uint32
}

// FastForwardStop classifies how fast-forwarding ended.
type FastForwardStop int

// Fast-forward stop reasons.
const (
	// FFSnapshotHint: the firmware executed `ecall 6`.
	FFSnapshotHint FastForwardStop = iota + 1
	// FFMakeSymbolic: the firmware requested symbolic input; the
	// ecall is left for the symbolic engine to re-execute.
	FFMakeSymbolic
	// FFTerminated: the firmware halted/crashed before any symbolic
	// point (nothing to explore).
	FFTerminated
	// FFBudget: the step budget ran out.
	FFBudget
)

// FastForward executes the firmware concretely — at near-native cost
// (vtime.NativeInstruction per instruction) against the live hardware
// — until the first snapshot hint (`ecall 6`) or make-symbolic
// request, then installs the captured machine state as the symbolic
// engine's initial state. This is the paper's fast-forwarding: the
// deterministic boot/init prefix never pays symbolic interpretation
// overhead. Call before Engine.Run; maxSteps 0 means 10M.
func (a *Analysis) FastForward(maxSteps uint64) (*FastForwardResult, error) {
	if maxSteps == 0 {
		maxSteps = 10_000_000
	}
	cpu := a.Rig.NewCPU(a.Exec.Config().VM)
	if err := cpu.Load(a.Program); err != nil {
		return nil, err
	}

	var stop FastForwardStop
	cpu.OnEcall = func(c *vm.CPU, service int32) bool {
		switch service {
		case isa.EcallSnapshotHint:
			stop = FFSnapshotHint
			return true
		case isa.EcallMakeSymbolic:
			stop = FFMakeSymbolic
			return true
		}
		return false
	}

	steps, _, err := a.Rig.RunConcrete(cpu, maxSteps, func() bool { return stop != 0 })
	if err != nil {
		return nil, err
	}

	res := &FastForwardResult{Instructions: steps}
	switch {
	case cpu.Stop != vm.StopNone:
		// Halted, crashed or violated a hardware property (possibly on
		// the very cycle the hand-off ecall retired).
		res.Reached = FFTerminated
		res.PC = cpu.PC
		return res, nil
	case stop == FFSnapshotHint:
		res.Reached = FFSnapshotHint
	case stop == FFMakeSymbolic:
		// Leave the ecall for the symbolic engine to re-execute.
		cpu.PC -= 4
		res.Reached = FFMakeSymbolic
	default:
		res.Reached = FFBudget
		res.PC = cpu.PC
		return res, fmt.Errorf("core: fast-forward budget (%d steps) exhausted", maxSteps)
	}
	res.PC = cpu.PC

	st, err := a.Exec.StateFromConcrete(cpu.PC, cpu.Regs, cpu.Mem,
		cpu.EPC, cpu.InHandler, cpu.PendingIRQs())
	if err != nil {
		return nil, err
	}
	st.Steps = steps
	a.Engine.SetInitialState(st)
	return res, nil
}
