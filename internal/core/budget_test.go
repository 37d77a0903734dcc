package core

import (
	"testing"
	"time"

	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

// TestVirtualTimeBudget: a run capped at half the uncapped virtual
// time must stop at a scheduling boundary near the cap, with leftover
// states finished as StatusBudget.
func TestVirtualTimeBudget(t *testing.T) {
	setup := SetupConfig{
		Firmware:    scalingFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Engine: Config{
			Mode:            ModeHardSnap,
			Searcher:        symexec.BFS{},
			MaxInstructions: 1_000_000,
		},
	}
	_, free := run(t, setup)
	if free.VirtualTime == 0 {
		t.Fatal("uncapped run consumed no virtual time")
	}

	cap := free.VirtualTime / 2
	setup.Engine.MaxVirtualTime = cap
	_, capped := run(t, setup)
	if capped.CountStatus(symexec.StatusBudget) == 0 {
		t.Fatalf("no budget-killed states (vt %v, cap %v)", capped.VirtualTime, cap)
	}
	if len(capped.Finished) >= len(free.Finished) {
		t.Fatalf("cap did not shrink the run: %d paths vs %d uncapped",
			len(capped.Finished), len(free.Finished))
	}
	// The budget is checked between steps, so overshoot is bounded by
	// one step's cost — far less than the remaining half of the run.
	if capped.VirtualTime >= free.VirtualTime {
		t.Fatalf("capped vt %v not below uncapped %v", capped.VirtualTime, free.VirtualTime)
	}
}

// TestSolverQueryBudget mirrors the virtual-time gate for solver
// queries.
func TestSolverQueryBudget(t *testing.T) {
	setup := SetupConfig{
		Firmware: scalingFirmware,
		Engine: Config{
			Searcher:        symexec.BFS{},
			MaxInstructions: 1_000_000,
		},
	}
	_, free := run(t, setup)
	if free.Solver.Queries == 0 {
		t.Fatal("uncapped run issued no solver queries")
	}

	cap := uint64(free.Solver.Queries) / 2
	setup.Engine.MaxSolverQueries = cap
	_, capped := run(t, setup)
	if capped.CountStatus(symexec.StatusBudget) == 0 {
		t.Fatal("no budget-killed states under solver cap")
	}
	if uint64(capped.Solver.Queries) >= uint64(free.Solver.Queries) {
		t.Fatalf("capped queries %d not below uncapped %d",
			capped.Solver.Queries, free.Solver.Queries)
	}
}

// TestVirtualTimeBudgetParallel: the cap also binds fan-out subtrees
// (each independently receives the post-seed remainder, like
// MaxInstructions).
func TestVirtualTimeBudgetParallel(t *testing.T) {
	setup := chaosSetup(nil, "", nil, symexec.BFS{})
	_, free := run(t, setup)

	setup.Engine.MaxVirtualTime = free.VirtualTime / 4
	_, capped := run(t, setup)
	if capped.CountStatus(symexec.StatusBudget) == 0 {
		t.Fatal("parallel run ignored the virtual-time cap")
	}
	if len(capped.Finished) >= len(free.Finished) {
		t.Fatalf("parallel cap did not shrink the run: %d vs %d paths",
			len(capped.Finished), len(free.Finished))
	}
}

// TestBudgetsInFingerprint: budget knobs shape the outcome, so resume
// must reject a journal recorded under different budgets.
func TestBudgetsInFingerprint(t *testing.T) {
	base := Config{}
	vt := base
	vt.MaxVirtualTime = time.Second
	q := base
	q.MaxSolverQueries = 10
	if base.runFingerprint() == vt.runFingerprint() {
		t.Error("MaxVirtualTime not in run fingerprint")
	}
	if base.runFingerprint() == q.runFingerprint() {
		t.Error("MaxSolverQueries not in run fingerprint")
	}
}
