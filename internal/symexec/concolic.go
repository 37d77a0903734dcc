package symexec

import (
	"fmt"

	"hardsnap/internal/expr"
	"hardsnap/internal/solver"
)

// ConcolicBranch is one conditional branch observed during a concolic
// replay: the branch condition as a term over the symbolic input, the
// side the concrete input took, and how many path constraints were
// already accumulated when the branch executed (so the flip query can
// use exactly the prefix that reaches it).
type ConcolicBranch struct {
	PC        uint32
	Cond      *expr.Term
	Taken     bool
	PrefixLen int
}

// ConcolicResult is the outcome of a concolic replay.
type ConcolicResult struct {
	// State is the final state; State.Constraints holds the full path
	// condition of the concrete execution.
	State *State
	// Branches lists every input-dependent conditional branch along
	// the path, in execution order.
	Branches []ConcolicBranch
	// Steps counts the instructions replayed.
	Steps int
}

// RunConcolic replays st along the path the concrete input takes,
// collecting the path condition and the input-dependent branches
// along it. Every make-symbolic buffer binds to input, whatever its
// tag, with the bytes past its end 0. Every decision the symbolic
// executor would normally pose to the solver (branch directions,
// boundary concretizations, assertions) is instead resolved by
// evaluating terms under the concrete input assignment. The replay
// never forks and never calls the solver, so its cost is one
// interpreted pass over the trace.
//
// The hybrid fuzzer uses this as the "concolic" half of the loop:
// replay a corpus input that keeps hitting a frontier branch, then
// hand SolveFlip the branch whose far side is still uncovered.
func (e *Executor) RunConcolic(st *State, input []byte, maxSteps int) (*ConcolicResult, error) {
	if e.concolic != nil {
		return nil, fmt.Errorf("symexec: concolic replay already in progress")
	}
	if maxSteps <= 0 {
		maxSteps = 100000
	}
	ctx := &concolicCtx{
		assign: make(expr.Assignment),
		input:  input,
	}
	e.concolic = ctx
	defer func() { e.concolic = nil }()
	// The replay's constraints follow the concrete input, not a solver
	// model, so the state keeps no witness.
	st.Witness = nil

	steps := 0
	for st.Status == StatusRunning && steps < maxSteps {
		if err := e.ServePendingInterrupt(st); err != nil {
			return nil, err
		}
		forks, err := e.Step(st)
		if err != nil {
			return nil, err
		}
		if len(forks) != 0 {
			return nil, fmt.Errorf("symexec: concolic replay forked at pc=%#x", st.PC)
		}
		steps++
	}
	return &ConcolicResult{State: st, Branches: ctx.trace, Steps: steps}, nil
}

// concolicCtx is the per-replay mode state: the growing variable
// assignment (populated as make-symbolic calls bind input bytes), the
// concrete input bytes, and the branch trace.
type concolicCtx struct {
	assign expr.Assignment
	input  []byte
	trace  []ConcolicBranch
}

// FlipConstraints returns the constraint set whose model drives
// execution to the far side of res.Branches[i]: the path-condition
// prefix that reaches the branch plus the negation of the side taken.
func (res *ConcolicResult) FlipConstraints(b *expr.Builder, i int) []*expr.Term {
	br := res.Branches[i]
	cs := make([]*expr.Term, 0, br.PrefixLen+1)
	cs = append(cs, res.State.Constraints[:br.PrefixLen]...)
	if br.Taken {
		cs = append(cs, b.NotBool(br.Cond))
	} else {
		cs = append(cs, br.Cond)
	}
	return cs
}

// SolveFlip asks the solver for an input that takes the opposite side
// of res.Branches[i] while preserving the path prefix that reaches
// it; ok is false when no input does. The returned model is partial:
// only the input bytes the flipped path actually constrains appear —
// apply it over the original input with ApplyModel.
func (e *Executor) SolveFlip(res *ConcolicResult, i int) (ok bool, model expr.Assignment) {
	e.Stats.SolverCalls++
	r, model := e.Solver.Check(res.FlipConstraints(e.B, i), nil)
	return r == solver.Sat, model
}

// ApplyModel overlays a solver model onto a concrete input buffer:
// bytes the model constrains (variables sym<tag>_<i>) are replaced,
// unconstrained bytes keep their original value so the solved seed
// stays as close as possible to the path the replay followed.
func ApplyModel(model expr.Assignment, tag uint32, base []byte) []byte {
	out := make([]byte, len(base))
	copy(out, base)
	for i := range out {
		if v, ok := model[fmt.Sprintf("sym%d_%d", tag, i)]; ok {
			out[i] = byte(v)
		}
	}
	return out
}
