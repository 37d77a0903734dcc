package symexec

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hardsnap/internal/asm"
	"hardsnap/internal/expr"
	"hardsnap/internal/solver"
	"hardsnap/internal/testseed"
)

// hashBranchFirmware is the shape of the benchmark's explore-solver
// firmware: one symbolic word through two multiplies and an xor-shift
// (a bijection, so every branch combination stays feasible), then k
// branches on bits of the product, stride 3: 2^k paths, 2^k-1 forks.
func hashBranchFirmware(k int) string {
	src := `
_start:
		li r8, 0x40000000
		li r9, 0xAB
		sw r9, 0(r8)
		li r1, 0x100
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lw r4, 0(r1)
		li r5, 0x9E3779B1
		mul r4, r4, r5
		srli r6, r4, 15
		xor r4, r4, r6
		li r5, 0x85EBCA77
		mul r4, r4, r5
		addi r7, r0, 0
`
	for i := 0; i < k; i++ {
		src += fmt.Sprintf(`
		srli r6, r4, %d
		andi r6, r6, 1
		beq r6, r0, hskip%d
		addi r7, r7, 1
hskip%d:
`, 3*i, i, i)
	}
	return src + `
		sw r7, 0(r8)
		halt
`
}

// TestForkAsksOneQuery: the witness decides one side of every fork, so
// a tree of 2^k paths costs 2^k-1 queries, not twice that.
func TestForkAsksOneQuery(t *testing.T) {
	e, err := New(Config{}, mustAssemble(t, hashBranchFirmware(6)), &recordingMMIO{})
	if err != nil {
		t.Fatal(err)
	}
	on := exploreWith(t, e)
	if q := e.Solver.Stats.Queries; q != 63 {
		t.Fatalf("%d solver queries for 63 forks, want 63", q)
	}
	if e.Stats.SolverCalls != uint64(e.Solver.Stats.Queries) {
		t.Fatalf("SolverCalls=%d but solver ran %d queries", e.Stats.SolverCalls, e.Solver.Stats.Queries)
	}
	if got := countStatus(on, StatusHalted); got != 64 || len(on) != 64 {
		t.Fatalf("%d halted of %d paths, want 64 of 64", got, len(on))
	}
}

// BenchmarkExploreHashBranch explores the hash-branch firmware at k=8
// depth-first: 256 paths whose every fork bit-blasts the multipliers.
// queries/op is the number of solver queries per exploration;
// conflicts/op and props/op are what the SAT core did to answer them.
func BenchmarkExploreHashBranch(b *testing.B) {
	prog, err := asm.Assemble(hashBranchFirmware(8), 0)
	if err != nil {
		b.Fatal(err)
	}
	var st solver.Stats
	for i := 0; i < b.N; i++ {
		e, err := New(Config{}, prog, &recordingMMIO{})
		if err != nil {
			b.Fatal(err)
		}
		if n := len(exploreWith(b, e)); n != 256 {
			b.Fatalf("%d paths, want 256", n)
		}
		st.Queries += e.Solver.Stats.Queries
		st.Conflicts += e.Solver.Stats.Conflicts
		st.Propagations += e.Solver.Stats.Propagations
	}
	b.ReportMetric(float64(st.Queries)/float64(b.N), "queries/op")
	b.ReportMetric(float64(st.Conflicts)/float64(b.N), "conflicts/op")
	b.ReportMetric(float64(st.Propagations)/float64(b.N), "props/op")
}

// witnessOp is one generated instruction group of a witness program.
type witnessOp uint16

func (op witnessOp) asm(i int) string {
	c := int(op>>4) & 0xFF
	terms := []string{"add", "mul", "xor"}
	term := terms[int(op>>12)%len(terms)]
	switch op % 5 {
	case 0: // branch on a symbolic add/mul/xor term
		conds := []string{"beq", "bne", "bltu", "bgeu", "blt"}
		return fmt.Sprintf(`
		%s r9, r4, r5
		andi r9, r9, 0xFF
		addi r10, r0, %d
		%s r9, r10, w%d
		addi r4, r4, 3
w%d:
`, term, c, conds[int(op>>12)%len(conds)], i, i)
	case 1: // assume(term < c)
		return fmt.Sprintf(`
		%s r9, r5, r6
		andi r9, r9, 0xFF
		sltiu r1, r9, %d
		ecall 5
`, term, c+1)
	case 2: // assert(term != c)
		return fmt.Sprintf(`
		%s r9, r4, r6
		andi r9, r9, 0xFF
		xori r1, r9, %d
		ecall 2
`, term, c)
	case 3: // symbolic MMIO store: concretized at the boundary
		return fmt.Sprintf(`
		%s r9, r4, r5
		andi r9, r9, 3
		sw r9, 0(r8)
`, term)
	default: // mix the inputs without branching
		return fmt.Sprintf(`
		%s r5, r5, r4
		addi r4, r4, %d
`, term, c)
	}
}

// witnessProgram wraps generated ops with a prologue that makes three
// bytes symbolic and loads them into r4..r6.
func witnessProgram(ops []witnessOp) string {
	src := `
_start:
		li r8, 0x40000000
		li r1, 0x100
		addi r2, r0, 3
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		lbu r5, 1(r1)
		lbu r6, 2(r1)
`
	for i, op := range ops {
		src += op.asm(i)
	}
	return src + "\t\thalt\n"
}

// exploreCheckingWitnesses explores like exploreWith and, after every
// Step, checks that each touched state's witness satisfies its whole
// path condition.
func exploreCheckingWitnesses(e *Executor) error {
	var ev expr.Evaluator
	check := func(st *State) error {
		if st.Witness == nil {
			return nil
		}
		for i, c := range st.Constraints {
			if ev.Eval(c, st.Witness) != 1 {
				return fmt.Errorf("state %d (%v at %#x): witness %v violates constraint %d of %d",
					st.ID, st.Status, st.PC, st.Witness, i, len(st.Constraints))
			}
		}
		return nil
	}
	active := []*State{e.InitialState()}
	for steps := 0; len(active) > 0; steps++ {
		if steps > 100000 {
			return fmt.Errorf("exploration budget exhausted")
		}
		st := active[len(active)-1]
		forks, err := e.Step(st)
		if err != nil {
			return err
		}
		for _, s := range append([]*State{st}, forks...) {
			if err := check(s); err != nil {
				return err
			}
		}
		active = append(active, forks...)
		kept := active[:0]
		for _, s := range active {
			if s.Status == StatusRunning {
				kept = append(kept, s)
			}
		}
		active = kept
	}
	return nil
}

// TestWitnessSatisfiesPathCondition: across generated programs mixing
// symbolic branches, assume, assert and symbolic MMIO stores under both
// concretization policies, every state's witness satisfies every
// constraint of its path condition after every step.
func TestWitnessSatisfiesPathCondition(t *testing.T) {
	var forks, concretized uint64
	f := func(ops []witnessOp, all bool) bool {
		if len(ops) > 6 {
			ops = ops[:6]
		}
		cfg := Config{Policy: ConcretizeOne}
		if all {
			cfg.Policy = ConcretizeAll
		}
		e, err := New(cfg, mustAssemble(t, witnessProgram(ops)), &recordingMMIO{})
		if err != nil {
			t.Fatal(err)
		}
		if err := exploreCheckingWitnesses(e); err != nil {
			t.Logf("policy all=%v, program:%s", all, witnessProgram(ops))
			t.Error(err)
			return false
		}
		forks += e.Stats.Forks
		concretized += e.Stats.Concretized
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 200)); err != nil {
		t.Fatal(err)
	}
	if forks == 0 || concretized == 0 {
		t.Fatalf("generated programs never forked (%d) or concretized (%d)", forks, concretized)
	}
	t.Logf("generated programs: %d forks, %d concretizations", forks, concretized)

	// 64 rounds of h = h*31 + (h>>3) share h twice per round; the two
	// branches that follow evaluate the whole DAG under the witness.
	hash := mustAssemble(t, `
_start:
		li r1, 0x100
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lw r4, 0(r1)
		addi r10, r0, 64
		addi r11, r0, 31
round:
		mul r12, r4, r11
		srli r13, r4, 3
		add r4, r12, r13
		addi r10, r10, -1
		bne r10, r0, round
		andi r9, r4, 1
		beq r9, r0, one
one:
		srli r9, r4, 7
		andi r9, r9, 1
		beq r9, r0, two
two:
		halt
`)
	e, err := New(Config{}, hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := exploreCheckingWitnesses(e); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Forks != 3 {
		t.Fatalf("hash rounds: %d forks, want 3", e.Stats.Forks)
	}
}

// TestPathKeyMatchesBatchKey: with a solver cache attached, the key a
// state folds one constraint at a time is the batch key of its whole
// path condition after every step, on the generated witness programs
// run twice over. The repeat appends terms a path already holds (a
// second assume of one condition, a second concretization of one
// value), which the fold must skip as the batch key's dedup does.
func TestPathKeyMatchesBatchKey(t *testing.T) {
	f := func(ops []witnessOp, all bool) bool {
		if len(ops) > 4 {
			ops = ops[:4]
		}
		cfg := Config{Policy: ConcretizeOne}
		if all {
			cfg.Policy = ConcretizeAll
		}
		e, err := New(cfg, mustAssemble(t, witnessProgram(append(ops[:len(ops):len(ops)], ops...))), &recordingMMIO{})
		if err != nil {
			t.Fatal(err)
		}
		cache := solver.NewCache(0)
		e.Solver.Cache = cache
		active := []*State{e.InitialState()}
		for steps := 0; len(active) > 0 && steps < 100000; steps++ {
			st := active[len(active)-1]
			forks, err := e.Step(st)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range append(forks, st) {
				if k := e.pathKey(s, nil); k.Sum() != cache.Key(s.Constraints) {
					t.Errorf("state %d: folded key of %d constraints is not their batch key", s.ID, len(s.Constraints))
					return false
				}
			}
			active = slices.DeleteFunc(append(active, forks...), func(s *State) bool { return s.Status != StatusRunning })
		}
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 100)); err != nil {
		t.Fatal(err)
	}
}
