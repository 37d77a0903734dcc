package symexec

import (
	"testing"

	"hardsnap/internal/asm"
	"hardsnap/internal/expr"
)

// explore runs the executor with a simple DFS worklist (no hardware)
// until all states terminate or budget is exhausted.
func explore(t *testing.T, src string, cfg Config) []*State {
	t.Helper()
	prog, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	e, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return exploreWith(t, e)
}

func exploreWith(t testing.TB, e *Executor) []*State {
	t.Helper()
	active := []*State{e.InitialState()}
	var finished []*State
	steps := 0
	for len(active) > 0 {
		steps++
		if steps > 500000 {
			t.Fatal("exploration budget exhausted")
		}
		st := active[len(active)-1]
		forks, err := e.Step(st)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		active = append(active, forks...)
		// Move terminated states out.
		kept := active[:0]
		for _, s := range active {
			if s.Status == StatusRunning {
				kept = append(kept, s)
			} else {
				finished = append(finished, s)
			}
		}
		active = kept
	}
	return finished
}

func countStatus(states []*State, status Status) int {
	n := 0
	for _, s := range states {
		if s.Status == status {
			n++
		}
	}
	return n
}

func TestConcreteExecution(t *testing.T) {
	finished := explore(t, `
		addi r1, r0, 6
		addi r2, r0, 7
		mul r3, r1, r2
		addi r4, r0, 42
		beq r3, r4, ok
		abort
ok:
		halt
	`, Config{})
	if len(finished) != 1 || finished[0].Status != StatusHalted {
		t.Fatalf("states: %d, first %v", len(finished), finished[0].Status)
	}
}

func TestSymbolicBranchForks(t *testing.T) {
	// One symbolic byte, branch on its value: two paths.
	finished := explore(t, `
_start:
		li r1, 0x100     ; buffer
		addi r2, r0, 1   ; len
		addi r3, r0, 7   ; tag
		ecall 1          ; make_symbolic
		lbu r4, 0(r1)
		addi r5, r0, 65
		beq r4, r5, isA
		halt
isA:
		halt
	`, Config{})
	if len(finished) != 2 {
		t.Fatalf("paths: %d, want 2", len(finished))
	}
	if countStatus(finished, StatusHalted) != 2 {
		t.Fatalf("both paths should halt: %+v", finished)
	}
}

func TestAssertFailureFindsInput(t *testing.T) {
	finished := explore(t, `
_start:
		li r1, 0x100
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1          ; 4 symbolic bytes
		lw r4, 0(r1)
		li r5, 0xDEADBEEF
		; assert(x != 0xDEADBEEF) -- fails exactly when x == DEADBEEF
		xor r1, r4, r5
		ecall 2
		halt
	`, Config{})
	fails := 0
	for _, s := range finished {
		if s.Status != StatusAssertFail {
			continue
		}
		fails++
		if s.Model == nil {
			t.Fatal("failing state must carry a model")
		}
		// Reconstruct the input from the model: bytes sym1_0..sym1_3.
		var x uint32
		for i := 0; i < 4; i++ {
			name := []string{"sym1_0", "sym1_1", "sym1_2", "sym1_3"}[i]
			x |= uint32(s.Model[name]) << (8 * i)
		}
		if x != 0xDEADBEEF {
			t.Fatalf("model gives %#x, want DEADBEEF (model %v)", x, s.Model)
		}
	}
	if fails != 1 {
		t.Fatalf("assert failures: %d, want 1", fails)
	}
	if countStatus(finished, StatusHalted) != 1 {
		t.Fatalf("exactly one passing path expected: %v", finished)
	}
}

func TestAssumePrunes(t *testing.T) {
	finished := explore(t, `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 2
		ecall 1
		lbu r4, 0(r1)
		; assume(x < 10)
		sltiu r1, r4, 10
		ecall 5
		; branch on x >= 10 must now be infeasible
		addi r5, r0, 10
		bltu r4, r5, small
		abort
small:
		halt
	`, Config{})
	if countStatus(finished, StatusAborted) != 0 {
		t.Fatal("assume failed to prune the large-value path")
	}
	if countStatus(finished, StatusHalted) != 1 {
		t.Fatalf("want 1 halted path, got %+v", finished)
	}
}

func TestMultiwayExploration(t *testing.T) {
	// 3 sequential symbolic branches -> 8 paths.
	finished := explore(t, `
_start:
		li r1, 0x100
		addi r2, r0, 3
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		lbu r5, 1(r1)
		lbu r6, 2(r1)
		andi r4, r4, 1
		andi r5, r5, 1
		andi r6, r6, 1
		add r7, r4, r5
		add r7, r7, r6
		halt
	`, Config{})
	// No branches in the code itself; all ANDs are symbolic but no
	// forks happen without branches.
	if len(finished) != 1 {
		t.Fatalf("paths: %d, want 1 (no branching)", len(finished))
	}

	finished = explore(t, `
_start:
		li r1, 0x100
		addi r2, r0, 3
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		lbu r5, 1(r1)
		lbu r6, 2(r1)
		addi r7, r0, 0
		andi r4, r4, 1
		beq r4, r0, b2
		addi r7, r7, 1
b2:
		andi r5, r5, 1
		beq r5, r0, b3
		addi r7, r7, 1
b3:
		andi r6, r6, 1
		beq r6, r0, done
		addi r7, r7, 1
done:
		halt
	`, Config{})
	if len(finished) != 8 {
		t.Fatalf("paths: %d, want 8", len(finished))
	}
}

func TestSymbolicMemoryRoundTrip(t *testing.T) {
	finished := explore(t, `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 3
		ecall 1
		lbu r4, 0(r1)      ; symbolic byte
		sb r4, 64(r1)      ; store elsewhere
		lbu r5, 64(r1)     ; read back
		bne r4, r5, bad
		halt
bad:
		abort
	`, Config{})
	if countStatus(finished, StatusAborted) != 0 {
		t.Fatal("symbolic memory round trip lost equality")
	}
}

func TestSymbolicStoreAddressConcretized(t *testing.T) {
	// Store to base + (x & 3): with ConcretizeAll, up to 4 paths.
	src := `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 3
		li r5, 0x200
		add r5, r5, r4
		addi r6, r0, 77
		sb r6, 0(r5)
		halt
	`
	prog, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Policy: ConcretizeAll, MaxValues: 16}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	finished := exploreWith(t, e)
	if len(finished) != 4 {
		t.Fatalf("paths with ConcretizeAll: %d, want 4", len(finished))
	}

	e2, err := New(Config{Policy: ConcretizeOne}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	finished = exploreWith(t, e2)
	if len(finished) != 1 {
		t.Fatalf("paths with ConcretizeOne: %d, want 1", len(finished))
	}
}

func TestFaultOnWildAccess(t *testing.T) {
	finished := explore(t, `
		li r1, 0x30000000
		lw r2, 0(r1)
		halt
	`, Config{})
	if countStatus(finished, StatusFault) != 1 {
		t.Fatalf("want fault, got %+v", finished[0].Status)
	}
}

func TestMMIOWithoutHardwareFaults(t *testing.T) {
	finished := explore(t, `
		li r1, 0x40000000
		lw r2, 0(r1)
		halt
	`, Config{})
	if countStatus(finished, StatusFault) != 1 {
		t.Fatal("MMIO access without hardware must fault")
	}
}

// recordingMMIO is a test double standing in for the engine's bus.
type recordingMMIO struct {
	regs   map[uint32]uint32
	writes []uint32
}

func (m *recordingMMIO) Read(st *State, addr uint32) (uint32, error) {
	return m.regs[addr], nil
}

func (m *recordingMMIO) Write(st *State, addr uint32, val uint32) error {
	m.writes = append(m.writes, val)
	if m.regs == nil {
		m.regs = map[uint32]uint32{}
	}
	m.regs[addr] = val
	return nil
}

func TestMMIOForwarding(t *testing.T) {
	src := `
		li r1, 0x40000000
		li r2, 0x1234
		sw r2, 0(r1)
		lw r3, 0(r1)
		li r4, 0x1234
		beq r3, r4, ok
		abort
ok:
		halt
	`
	prog, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	mm := &recordingMMIO{}
	e, err := New(Config{}, prog, mm)
	if err != nil {
		t.Fatal(err)
	}
	finished := exploreWith(t, e)
	if countStatus(finished, StatusHalted) != 1 {
		t.Fatalf("round trip failed: %+v", finished)
	}
	if len(mm.writes) != 1 || mm.writes[0] != 0x1234 {
		t.Fatalf("writes: %v", mm.writes)
	}
}

func TestSymbolicMMIOWriteConcretized(t *testing.T) {
	src := `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 1     ; x & 1: two possible values
		li r5, 0x40000000
		sw r4, 0(r5)
		halt
	`
	prog, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	mm := &recordingMMIO{}
	e, err := New(Config{Policy: ConcretizeAll}, prog, mm)
	if err != nil {
		t.Fatal(err)
	}
	finished := exploreWith(t, e)
	if len(finished) != 2 {
		t.Fatalf("paths: %d, want 2 (one per concrete value)", len(finished))
	}
	if len(mm.writes) != 2 {
		t.Fatalf("hardware writes: %v, want two (one per path)", mm.writes)
	}
	seen := map[uint32]bool{}
	for _, w := range mm.writes {
		seen[w] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("concretized values: %v, want {0,1}", mm.writes)
	}
}

func TestInterruptDispatchAndMret(t *testing.T) {
	src := `
_start:
		la r1, handler
		li r2, 0xFC0
		sw r1, 0(r2)
		addi r5, r0, 0
		nop
		nop
		halt
handler:
		addi r5, r5, 1
		mret
	`
	prog, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.InitialState()
	// Execute setup (la=5, li=1? li 0xFC0 -> one addi... count via loop).
	for i := 0; i < 9; i++ {
		if _, err := e.Step(st); err != nil {
			t.Fatal(err)
		}
	}
	st.IRQPending = 1
	if err := e.ServePendingInterrupt(st); err != nil {
		t.Fatal(err)
	}
	if !st.InHandler {
		t.Fatalf("not in handler, pc=%#x", st.PC)
	}
	for st.Status == StatusRunning {
		if err := e.ServePendingInterrupt(st); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(st); err != nil {
			t.Fatal(err)
		}
		if st.Steps > 100 {
			t.Fatal("runaway")
		}
	}
	if st.Status != StatusHalted {
		t.Fatalf("status %v (err %v)", st.Status, st.Err)
	}
	if v, ok := st.Regs[5].Const(); !ok || v != 1 {
		t.Fatalf("handler count: %v", st.Regs[5])
	}
}

func TestSearchers(t *testing.T) {
	b := expr.NewBuilder()
	zero := b.Const(0, 32)
	mk := func(id uint64) *State {
		s := &State{ID: id, Status: StatusRunning}
		for i := range s.Regs {
			s.Regs[i] = zero
		}
		return s
	}
	states := []*State{mk(1), mk(2), mk(3)}
	if (DFS{}).Select(states, nil) != 2 {
		t.Error("dfs should pick last")
	}
	if (BFS{}).Select(states, nil) != 0 {
		t.Error("bfs should pick first")
	}
	rr := &RoundRobin{}
	picks := []int{rr.Select(states, nil), rr.Select(states, nil), rr.Select(states, nil), rr.Select(states, nil)}
	if picks[0] != 0 || picks[1] != 1 || picks[2] != 2 || picks[3] != 0 {
		t.Errorf("round robin picks: %v", picks)
	}
	r := NewRandom(1)
	idx := r.Select(states, nil)
	if idx < 0 || idx > 2 {
		t.Error("random out of range")
	}
	cov := NewCoverage()
	states[0].PC = 0x10
	states[1].PC = 0x20
	if cov.Select(states, nil) != 0 {
		t.Error("coverage should pick unseen")
	}
	if cov.Select(states, nil) != 1 {
		t.Error("coverage should pick next unseen")
	}
}

func TestConsoleOutput(t *testing.T) {
	finished := explore(t, `
		addi r1, r0, 72
		ecall 3
		addi r1, r0, 105
		ecall 3
		halt
	`, Config{})
	if string(finished[0].Console) != "Hi" {
		t.Fatalf("console %q", finished[0].Console)
	}
}

func TestDivisionSemantics(t *testing.T) {
	finished := explore(t, `
		addi r1, r0, 100
		addi r2, r0, 0
		divu r3, r1, r2
		li r4, 0xFFFFFFFF
		beq r3, r4, ok
		abort
ok:
		halt
	`, Config{})
	if countStatus(finished, StatusHalted) != 1 {
		t.Fatal("division by zero semantics mismatch")
	}
}

func TestOverlayGrowth(t *testing.T) {
	finished := explore(t, `
		li r1, 0x200
		addi r2, r0, 0
loop:
		sb r2, 0(r1)
		addi r1, r1, 1
		addi r2, r2, 1
		slti r3, r2, 50
		bne r3, r0, loop
		halt
	`, Config{})
	if len(finished) != 1 || finished[0].Status != StatusHalted {
		t.Fatalf("status: %v", finished[0].Status)
	}
	if n := len(finished[0].Mem.overlay); n != 50 {
		t.Fatalf("overlay size %d, want 50", n)
	}
}

func TestLoadSignExtensionSymbolic(t *testing.T) {
	// Store a symbolic byte, load it back with lb/lbu and verify sign
	// semantics via solver-checked branches.
	finished := explore(t, `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		; assume input >= 0x80 (sign bit set)
		lbu r4, 0(r1)
		sltiu r1, r4, 0x80
		xori r1, r1, 1
		ecall 5
		lb r5, 0x100(r0)    ; sign-extended load
		; r5 must be negative
		slt r1, r5, r0
		ecall 2
		lbu r6, 0x100(r0)   ; zero-extended load
		; r6 must be positive and >= 0x80
		sltiu r7, r6, 0x80
		xori r1, r7, 1
		ecall 2
		halt
	`, Config{})
	if countStatus(finished, StatusAssertFail) != 0 {
		t.Fatal("sign extension semantics broken")
	}
	if countStatus(finished, StatusHalted) != 1 {
		t.Fatalf("paths: %+v", finished)
	}
}

func TestHalfwordSymbolic(t *testing.T) {
	finished := explore(t, `
_start:
		li r1, 0x100
		addi r2, r0, 2
		addi r3, r0, 1
		ecall 1
		lh r4, 0(r1)
		lhu r5, 0(r1)
		; low 16 bits must agree
		li r6, 0xFFFF
		and r7, r4, r6
		and r8, r5, r6
		bne r7, r8, bad
		halt
bad:
		abort
	`, Config{})
	if countStatus(finished, StatusAborted) != 0 {
		t.Fatal("halfword load semantics inconsistent")
	}
}

// TestBudgetExhaustionParksUnknown: a branch the solver cannot decide
// within its conflict budget must park the state as StatusUnknown —
// not prune it as infeasible (the path may well be feasible).
func TestBudgetExhaustionParksUnknown(t *testing.T) {
	src := `
_start:
	li r1, 0x100
	addi r2, r0, 4
	addi r3, r0, 1
	ecall 1
	lhu r4, 0(r1)
	lhu r5, 2(r1)
	mul r6, r4, r5
	li r7, 0x3FF7
	beq r6, r7, hit
	halt
hit:
	halt
`
	for _, disable := range []bool{false, true} {
		e, err := New(Config{SolverConflicts: 1, DisableSolverOpt: disable},
			mustAssemble(t, src), nil)
		if err != nil {
			t.Fatal(err)
		}
		finished := exploreWith(t, e)
		if got := countStatus(finished, StatusUnknown); got != 1 {
			t.Fatalf("opt-disabled=%v: %d unknown states, want 1 (statuses: %v)",
				disable, got, statuses(finished))
		}
		if countStatus(finished, StatusInfeasible) != 0 {
			t.Fatalf("opt-disabled=%v: budget exhaustion was mispruned as infeasible", disable)
		}
		if e.Stats.SolverUnknowns == 0 {
			t.Fatalf("opt-disabled=%v: SolverUnknowns not counted", disable)
		}
	}
}

func statuses(states []*State) []Status {
	out := make([]Status, len(states))
	for i, s := range states {
		out[i] = s.Status
	}
	return out
}

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSolverCallAccounting: Stats.SolverCalls must equal the queries
// the solver actually ran — including enumeration blocking queries —
// not a guess derived from the value count.
func TestSolverCallAccounting(t *testing.T) {
	src := `
_start:
	li r1, 0x100
	addi r2, r0, 1
	addi r3, r0, 1
	ecall 1
	lbu r4, 0(r1)
	andi r4, r4, 3
	slli r4, r4, 2
	li r5, 0x200
	add r4, r4, r5
	sw r4, 0(r4)
	halt
`
	e, err := New(Config{Policy: ConcretizeAll, MaxValues: 16}, mustAssemble(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	finished := exploreWith(t, e)
	if got := countStatus(finished, StatusHalted); got != 4 {
		t.Fatalf("%d halted paths, want 4", got)
	}
	if e.Stats.SolverCalls != uint64(e.Solver.Stats.Queries) {
		t.Fatalf("SolverCalls=%d but solver ran %d queries",
			e.Stats.SolverCalls, e.Solver.Stats.Queries)
	}
}

// TestSolverOptPreservesExploration: the full optimization stack and
// plain solving must explore identical trees (same statuses, same
// PCs), with the stack's stage counters actually moving. On the magic
// chain — running-sum compares whose path conditions form one growing
// slice — the stack must also at least halve SAT effort (conflicts +
// propagations).
func TestSolverOptPreservesExploration(t *testing.T) {
	for _, tc := range []struct {
		name, src    string
		minEffortCut int64
	}{{name: "threshold", src: `
_start:
	li r1, 0x100
	addi r2, r0, 3
	addi r3, r0, 1
	ecall 1
	addi r7, r0, 0
	lbu r4, 0(r1)
	add r7, r7, r4
	lbu r4, 1(r1)
	add r7, r7, r4
	li r5, 300
	bltu r7, r5, low
	abort
low:
	lbu r4, 2(r1)
	addi r5, r0, 9
	bne r4, r5, out
	abort
out:
	halt
`}, {name: "magic-chain", minEffortCut: 2, src: `
_start:
	li r1, 0x100
	addi r2, r0, 4
	addi r3, r0, 1
	ecall 1
	addi r7, r0, 0
	lbu r4, 0(r1)
	add r7, r7, r4
	addi r5, r0, 0x41
	bne r7, r5, out
	lbu r4, 1(r1)
	add r7, r7, r4
	addi r5, r0, 0x83
	bne r7, r5, out
	lbu r4, 2(r1)
	add r7, r7, r4
	addi r5, r0, 0xC6
	bne r7, r5, out
	lbu r4, 3(r1)
	add r7, r7, r4
	addi r5, r0, 0x10A
	bne r7, r5, out
	abort
out:
	halt
`}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(disable bool) (*Executor, []*State) {
				e, err := New(Config{DisableSolverOpt: disable}, mustAssemble(t, tc.src), nil)
				if err != nil {
					t.Fatal(err)
				}
				return e, exploreWith(t, e)
			}
			eOn, on := run(false)
			eOff, off := run(true)
			if len(on) != len(off) {
				t.Fatalf("path counts differ: on=%d off=%d", len(on), len(off))
			}
			for _, status := range []Status{StatusHalted, StatusAborted, StatusInfeasible, StatusUnknown} {
				if countStatus(on, status) != countStatus(off, status) {
					t.Fatalf("status %v count differs: on=%d off=%d",
						status, countStatus(on, status), countStatus(off, status))
				}
			}
			st := eOn.Solver.Stats
			if st.Rewrites == 0 && st.Sliced == 0 && st.ModelHits == 0 && st.IncrementalReuses == 0 {
				t.Fatalf("optimization stack never fired: %+v", st)
			}
			offSt := eOff.Solver.Stats
			if offSt.Rewrites != 0 || offSt.Sliced != 0 || offSt.ModelHits != 0 || offSt.IncrementalReuses != 0 {
				t.Fatalf("disabled stack moved counters: %+v", offSt)
			}
			effortOn, effortOff := st.Conflicts+st.Propagations, offSt.Conflicts+offSt.Propagations
			if tc.minEffortCut > 0 && effortOff < tc.minEffortCut*effortOn {
				t.Fatalf("stack cut SAT effort %d -> %d, want at least %dx", effortOff, effortOn, tc.minEffortCut)
			}
		})
	}
}
