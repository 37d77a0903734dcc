package symexec

import (
	"testing"

	"hardsnap/internal/asm"
)

// concolicProg reads 4 input bytes and branches on a 32-bit magic
// compare; the concrete replay should take the "not magic" side and a
// single flip query should produce the magic word.
const concolicProg = `
_start:
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lw r4, 0(r1)
		li r5, 0x1BADC0DE
		bne r4, r5, ok
		abort
ok:
		halt
`

func runConcolic(t *testing.T, src string, input []byte) (*Executor, *ConcolicResult) {
	t.Helper()
	prog, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunConcolic(e.InitialState(), input, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

func TestConcolicReplayFollowsConcretePath(t *testing.T) {
	_, res := runConcolic(t, concolicProg, []byte{1, 2, 3, 4})
	if res.State.Status != StatusHalted {
		t.Fatalf("status %v", res.State.Status)
	}
	if len(res.Branches) != 1 {
		t.Fatalf("%d branches traced, want 1", len(res.Branches))
	}
	// Input 0x04030201 != magic, so bne is taken (jumps to ok).
	if !res.Branches[0].Taken {
		t.Fatal("bne against non-magic input must be taken")
	}
	if res.Steps == 0 {
		t.Fatal("no steps counted")
	}
}

func TestConcolicFlipSolvesMagic(t *testing.T) {
	e, res := runConcolic(t, concolicProg, []byte{1, 2, 3, 4})
	ok, model := e.SolveFlip(res, 0)
	if !ok {
		t.Fatal("flip query unsat")
	}
	if len(res.State.SymInputs) != 1 {
		t.Fatalf("%d symbolic inputs", len(res.State.SymInputs))
	}
	seed := ApplyModel(model, res.State.SymInputs[0].Tag, []byte{1, 2, 3, 4})

	// Replaying the solved seed must take the other side and abort.
	_, res2 := runConcolic(t, concolicProg, seed)
	if res2.State.Status != StatusAborted {
		t.Fatalf("solved seed replay ended %v, want abort", res2.State.Status)
	}
	if len(res2.Branches) != 1 || res2.Branches[0].Taken {
		t.Fatalf("solved seed branch trace %+v", res2.Branches)
	}
	word := uint32(seed[0]) | uint32(seed[1])<<8 | uint32(seed[2])<<16 | uint32(seed[3])<<24
	if word != 0x1BADC0DE {
		t.Fatalf("solved seed %x is not the magic word", seed)
	}
}

func TestApplyModelPreservesUnconstrainedBytes(t *testing.T) {
	// A model that only names byte 2 must leave the rest of the base
	// input untouched.
	e, res := runConcolic(t, `
_start:
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lbu r4, 2(r1)
		addi r5, r0, 77
		bne r4, r5, ok
		abort
ok:
		halt
	`, []byte{9, 8, 7, 6})
	ok, model := e.SolveFlip(res, 0)
	if !ok {
		t.Fatal("flip query unsat")
	}
	seed := ApplyModel(model, res.State.SymInputs[0].Tag, []byte{9, 8, 7, 6})
	if seed[2] != 77 {
		t.Fatalf("constrained byte %d, want 77", seed[2])
	}
	if seed[0] != 9 || seed[1] != 8 || seed[3] != 6 {
		t.Fatalf("unconstrained bytes disturbed: %v", seed)
	}
}

func TestConcolicReplayNeverForksOrSolves(t *testing.T) {
	// A path through several input-dependent branches: the replay
	// resolves each by evaluation, so the solver is never consulted and
	// no forks occur.
	e, res := runConcolic(t, `
_start:
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		addi r5, r0, 10
		blt r4, r5, small
		addi r6, r0, 1
small:
		lbu r4, 1(r1)
		addi r5, r0, 20
		bge r4, r5, big
		addi r6, r0, 2
big:
		halt
	`, []byte{5, 30, 0, 0})
	if res.State.Status != StatusHalted {
		t.Fatalf("status %v", res.State.Status)
	}
	if len(res.Branches) != 2 {
		t.Fatalf("%d branches", len(res.Branches))
	}
	if !res.Branches[0].Taken || !res.Branches[1].Taken {
		t.Fatalf("trace %+v: 5<10 and 30>=20 are both taken", res.Branches)
	}
	if e.Stats.SolverCalls != 0 {
		t.Fatalf("replay made %d solver calls", e.Stats.SolverCalls)
	}
	if e.Stats.Forks != 0 {
		t.Fatalf("replay forked %d times", e.Stats.Forks)
	}
	// PrefixLen must be monotonically non-decreasing along the trace.
	if res.Branches[1].PrefixLen < res.Branches[0].PrefixLen {
		t.Fatalf("prefix lengths out of order: %+v", res.Branches)
	}
}
