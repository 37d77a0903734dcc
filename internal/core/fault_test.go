package core

import (
	"sort"
	"testing"
	"time"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

// fpgaRun executes the consistency firmware on an FPGA-backed engine,
// letting the caller arm faults on the target before the run starts.
func fpgaRun(t *testing.T, mode Mode, arm func(*Analysis)) (*Analysis, *Report) {
	t.Helper()
	a, err := Setup(SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		FPGA:        true,
		Engine: Config{
			Mode:            mode,
			Searcher:        &symexec.RoundRobin{},
			MaxInstructions: 100000,
		},
	})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if arm != nil {
		arm(a)
	}
	rep, err := a.Engine.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return a, rep
}

func bugPCs(rep *Report) []uint32 {
	var pcs []uint32
	for _, b := range rep.Bugs() {
		pcs = append(pcs, b.PC)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}

func TestFaultyLinkSameFindings(t *testing.T) {
	// Baseline: clean FPGA link.
	_, clean := fpgaRun(t, ModeHardSnap, nil)
	if n := len(clean.Bugs()); n != 0 {
		t.Fatalf("clean baseline has %d bugs", n)
	}
	if clean.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatalf("clean baseline paths: %+v", clean.Stats)
	}

	// Same analysis over a lossy, jittery link: the retry layer must
	// absorb every fault and the findings must not change.
	fa, faulty := fpgaRun(t, ModeHardSnap, func(a *Analysis) {
		a.Target.InjectFaults(target.FaultSchedule{
			Seed:          7,
			DropRate:      0.15,
			CorruptRate:   0.05,
			LatencyJitter: 5 * time.Microsecond,
		})
	})
	if n := len(faulty.Bugs()); n != 0 {
		t.Fatalf("faulty link changed the findings: %d bugs", n)
	}
	if faulty.CountStatus(symexec.StatusHalted) != 2 {
		t.Fatalf("faulty run paths: %+v", faulty.Stats)
	}
	st := fa.Target.Stats()
	if st.Retries == 0 || st.FaultsInjected == 0 {
		t.Fatalf("schedule injected nothing: %+v", st)
	}
	// Every retry is caused by an injected fault: the retry count is
	// bounded by the fault count, never a runaway loop.
	if st.Retries > st.FaultsInjected {
		t.Fatalf("retries %d exceed injected faults %d", st.Retries, st.FaultsInjected)
	}
	// Lost frames cost virtual time (timeouts, backoff), they never
	// come for free.
	if faulty.VirtualTime <= clean.VirtualTime {
		t.Fatalf("faulty run (%v) should be slower than clean (%v)",
			faulty.VirtualTime, clean.VirtualTime)
	}
}

func TestFaultyLinkSameBugReports(t *testing.T) {
	// Naive-shared mode genuinely produces findings (cross-path
	// corruption); a faulty link must reproduce the exact same ones.
	_, clean := fpgaRun(t, ModeNaiveShared, nil)
	cleanPCs := bugPCs(clean)
	if len(cleanPCs) == 0 {
		t.Fatal("naive-shared baseline should report bugs")
	}
	_, faulty := fpgaRun(t, ModeNaiveShared, func(a *Analysis) {
		a.Target.InjectFaults(target.FaultSchedule{
			Seed:        11,
			DropRate:    0.2,
			CorruptRate: 0.05,
		})
	})
	faultyPCs := bugPCs(faulty)
	if len(cleanPCs) != len(faultyPCs) {
		t.Fatalf("bug count diverged: clean %v, faulty %v", cleanPCs, faultyPCs)
	}
	for i := range cleanPCs {
		if cleanPCs[i] != faultyPCs[i] {
			t.Fatalf("bug PCs diverged: clean %v, faulty %v", cleanPCs, faultyPCs)
		}
	}
}

// TestDeadLinkFailsRun pins what a persistent link failure does to a
// running analysis: the FPGA link dies for good 20 transactions in,
// the health check fails, and the target is dead. The fatal error
// ends the whole run, not one path: Engine.Run returns it (here from
// the per-step IRQ sample) and no report.
func TestDeadLinkFailsRun(t *testing.T) {
	a, err := Setup(SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		FPGA:        true,
		Engine: Config{
			Mode:            ModeHardSnap,
			Searcher:        &symexec.RoundRobin{},
			MaxInstructions: 100000,
		},
	})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	a.Target.InjectFaults(target.FaultSchedule{Seed: 3, FailAfter: 20})
	rep, err := a.Engine.Run()
	if !target.IsFatal(err) {
		t.Fatalf("run error %v, want a fatal link failure", err)
	}
	if rep != nil {
		t.Fatalf("failed run returned a report: %+v", rep.Stats)
	}
	if a.Target.Kind() != target.KindFPGA {
		t.Fatalf("kind after link death %q", a.Target.Kind())
	}
	want := target.Stats{Cycles: 10, Snapshots: 1, SnapshotTime: 61280 * time.Nanosecond,
		SnapshotBytes: 8, Retries: 4, FaultsInjected: 8}
	if st := a.Target.Stats(); st != want {
		t.Fatalf("target stats %+v, want %+v", st, want)
	}
}

func TestCorruptedSnapshotRejected(t *testing.T) {
	a, err := Setup(SetupConfig{
		Firmware:    consistencyFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.Target.Save()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(&snapshot.Record{HW: st})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in transit: the restore path must reject
	// the snapshot with an integrity error, not apply garbage.
	blob[len(blob)-1] ^= 0x10
	if _, err := snapshot.Decode(blob); !target.IsIntegrity(err) {
		t.Fatalf("corrupted snapshot decode: %v, want integrity error", err)
	}
	bad := st.Clone()
	bad["gpio0"].Regs["phantom_register"] = 1
	if err := a.Target.Restore(bad); !target.IsIntegrity(err) {
		t.Fatalf("mismatched snapshot restore: %v, want integrity error", err)
	}
}

// TestFaultyLinkParallelStreams: with workers, each subtree runs on the
// fault stream derived from its index, not from the worker that claimed
// it, so a faulty parallel run reproduces itself exactly (paths, bugs,
// virtual time) and finds what the clean run finds.
func TestFaultyLinkParallelStreams(t *testing.T) {
	parallel := func(sched target.FaultSchedule) *Report {
		t.Helper()
		a, err := Setup(SetupConfig{
			Firmware:    scalingFirmware,
			Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
			FPGA:        true,
			Engine: Config{
				Mode:            ModeHardSnap,
				Searcher:        symexec.BFS{},
				MaxInstructions: 1_000_000,
				Workers:         3,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		a.Target.InjectFaults(sched)
		rep, err := a.Engine.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	clean := parallel(target.FaultSchedule{})
	sched := target.FaultSchedule{Seed: 5, DropRate: 0.1, CorruptRate: 0.05}
	first, second := parallel(sched), parallel(sched)
	if a, b := Fingerprint(first), Fingerprint(second); a != b {
		t.Fatalf("faulty parallel runs diverged: vt %v vs %v", first.VirtualTime, second.VirtualTime)
	}
	if a, b := pathSignatures(clean), pathSignatures(first); !equalStrings(a, b) {
		t.Fatalf("faulty link changed the paths:\nclean:  %v\nfaulty: %v", a, b)
	}
	if a, b := bugSignatures(clean), bugSignatures(first); !equalStrings(a, b) {
		t.Fatalf("faulty link changed the bugs:\nclean:  %v\nfaulty: %v", a, b)
	}
	if first.VirtualTime <= clean.VirtualTime {
		t.Fatalf("faulty run (%v) should be slower than clean (%v)", first.VirtualTime, clean.VirtualTime)
	}
}
