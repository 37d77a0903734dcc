package target

import (
	"errors"
	"testing"
	"time"

	"hardsnap/internal/sim"
	"hardsnap/internal/vtime"
)

func newSim(t *testing.T, clock *vtime.Clock, periphs ...PeriphConfig) *Target {
	t.Helper()
	if len(periphs) == 0 {
		periphs = []PeriphConfig{{Name: "gpio0", Periph: "gpio"}}
	}
	tg, err := NewSimulator("sim", clock, periphs)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func newFPGA(t *testing.T, clock *vtime.Clock, readback bool, periphs ...PeriphConfig) *Target {
	t.Helper()
	if len(periphs) == 0 {
		periphs = []PeriphConfig{{Name: "gpio0", Periph: "gpio"}}
	}
	tg, err := NewFPGA("fpga", clock, periphs, readback)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestSimulatorPortReadWrite(t *testing.T) {
	tg := newSim(t, &vtime.Clock{})
	p, err := tg.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteReg(0x00, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xCAFE {
		t.Fatalf("readback %#x", v)
	}
	// Full visibility: the register is observable directly.
	out, err := tg.Peek("gpio0", "out")
	if err != nil {
		t.Fatal(err)
	}
	if out != 0xCAFE {
		t.Fatalf("peek out = %#x", out)
	}
	if _, err := tg.Port("nope"); err == nil {
		t.Fatal("port on unknown peripheral must fail")
	}
}

func TestSaveRestoreRoundtrip(t *testing.T) {
	tg := newSim(t, &vtime.Clock{})
	p, _ := tg.Port("gpio0")
	p.WriteReg(0x00, 0x1111)
	st, err := tg.Save()
	if err != nil {
		t.Fatal(err)
	}
	p.WriteReg(0x00, 0x2222)
	if err := tg.Restore(st); err != nil {
		t.Fatal(err)
	}
	v, _ := p.ReadReg(0x00)
	if v != 0x1111 {
		t.Fatalf("restore lost state: %#x", v)
	}
	s := tg.Stats()
	if s.Snapshots != 1 || s.Restores != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFPGAScanSnapshotCost(t *testing.T) {
	clock := &vtime.Clock{}
	tg := newFPGA(t, clock, false)
	p, _ := tg.Port("gpio0")
	p.WriteReg(0x00, 0xAB)

	bits := tg.StateBits()
	want := vtime.FPGAScanCosts().SnapshotCost(bits)

	before := clock.Now()
	st, err := tg.Save()
	if err != nil {
		t.Fatal(err)
	}
	if got := clock.Now() - before; got != want {
		t.Fatalf("scan save cost %v, want %v (%d bits)", got, want, bits)
	}

	p.WriteReg(0x00, 0xCD)
	before = clock.Now()
	if err := tg.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now() - before; got != want {
		t.Fatalf("scan restore cost %v, want %v", got, want)
	}
	if v, _ := p.ReadReg(0x00); v != 0xAB {
		t.Fatalf("scan roundtrip lost state: %#x", v)
	}
}

func TestFPGAReadbackSnapshotCost(t *testing.T) {
	clock := &vtime.Clock{}
	tg := newFPGA(t, clock, true)
	p, _ := tg.Port("gpio0")
	p.WriteReg(0x00, 0x77)

	before := clock.Now()
	st, err := tg.Save()
	if err != nil {
		t.Fatal(err)
	}
	if got := clock.Now() - before; got != vtime.ReadbackFixed {
		t.Fatalf("readback save cost %v, want %v", got, vtime.ReadbackFixed)
	}
	p.WriteReg(0x00, 0x88)
	if err := tg.Restore(st); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.ReadReg(0x00); v != 0x77 {
		t.Fatalf("readback roundtrip lost state: %#x", v)
	}
}

func TestTransferFPGAToSimulator(t *testing.T) {
	clock := &vtime.Clock{}
	periphs := []PeriphConfig{
		{Name: "gpio0", Periph: "gpio"},
		{Name: "timer0", Periph: "timer"},
	}
	fp := newFPGA(t, clock, false, periphs...)
	sm := newSim(t, clock, periphs...)

	fpPort, _ := fp.Port("gpio0")
	fpPort.WriteReg(0x00, 0xFEED)
	if err := fp.Advance(7); err != nil {
		t.Fatal(err)
	}
	if err := Transfer(fp, sm); err != nil {
		t.Fatal(err)
	}
	smPort, _ := sm.Port("gpio0")
	v, err := smPort.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFEED {
		t.Fatalf("transferred state readback %#x", v)
	}
}

func TestFPGANoVisibility(t *testing.T) {
	tg := newFPGA(t, &vtime.Clock{}, false)
	if _, err := tg.Peek("gpio0", "out"); !errors.Is(err, ErrNoVisibility) {
		t.Fatalf("Peek error %v, want ErrNoVisibility", err)
	}
	if _, err := tg.Simulator("gpio0"); !errors.Is(err, ErrNoVisibility) {
		t.Fatalf("Simulator error %v, want ErrNoVisibility", err)
	}
	err := tg.AddAssertion(HWAssertion{Periph: "gpio0", Name: "n", Expr: "out == out"})
	if !errors.Is(err, ErrNoVisibility) {
		t.Fatalf("AddAssertion error %v, want ErrNoVisibility", err)
	}
}

func TestAssertionViolation(t *testing.T) {
	tg := newSim(t, &vtime.Clock{})
	if err := tg.AddAssertion(HWAssertion{
		Periph: "gpio0", Name: "forbidden-value", Expr: "out != 32'hBAD",
	}); err != nil {
		t.Fatal(err)
	}
	p, _ := tg.Port("gpio0")
	p.WriteReg(0x00, 0xBAD)
	// Holding the violating value must not re-report the episode.
	p.WriteReg(0x00, 0xBAD)
	vs := tg.TakeViolations()
	if len(vs) != 1 {
		t.Fatalf("%d violations, want 1", len(vs))
	}
	if vs[0].Name != "forbidden-value" || vs[0].Periph != "gpio0" {
		t.Fatalf("violation %+v", vs[0])
	}
	if tg.TakeViolations() != nil {
		t.Fatal("TakeViolations must clear")
	}
	// Recover, violate again: a new episode.
	p.WriteReg(0x00, 0)
	p.WriteReg(0x00, 0xBAD)
	if vs := tg.TakeViolations(); len(vs) != 1 {
		t.Fatalf("%d violations after recovery, want 1", len(vs))
	}

	if err := tg.AddAssertion(HWAssertion{Periph: "gpio0", Name: "bad", Expr: "no_such_sig == 0"}); err == nil {
		t.Fatal("assertion on unknown signal must fail at add time")
	}
}

func TestDeterministicFaultRuns(t *testing.T) {
	sched := FaultSchedule{
		Seed:          99,
		DropRate:      0.35,
		CorruptRate:   0.1,
		LatencyJitter: 10 * time.Microsecond,
		StallEvery:    3,
		StallTime:     time.Millisecond,
	}
	run := func() (time.Duration, Stats, uint32) {
		clock := &vtime.Clock{}
		tg := newFPGA(t, clock, false)
		tg.InjectFaults(sched)
		p, _ := tg.Port("gpio0")
		for i := 0; i < 10; i++ {
			if err := p.WriteReg(0x00, uint32(i)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			if _, err := p.ReadReg(0x00); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		if err := tg.Advance(5); err != nil {
			t.Fatal(err)
		}
		v, _ := p.ReadReg(0x00)
		return clock.Now(), tg.Stats(), v
	}
	t1, s1, v1 := run()
	t2, s2, v2 := run()
	if t1 != t2 {
		t.Fatalf("virtual time diverged: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if v1 != v2 || v1 != 9 {
		t.Fatalf("final values %#x / %#x, want 9", v1, v2)
	}
	if s1.Retries == 0 || s1.FaultsInjected == 0 {
		t.Fatalf("schedule injected nothing: %+v", s1)
	}
	// Pinned: the seed's faults, the retry policy (linkRetries, the
	// backoff doubling from vtime.LinkRetryBackoff) and the health
	// check together fix the virtual time and counters to the
	// nanosecond. Any change to the draw order or the policy moves them.
	const wantVT = 44449342 * time.Nanosecond
	want := Stats{Cycles: 5, IOOps: 21, Retries: 14, FaultsInjected: 15}
	if t1 != wantVT || s1 != want {
		t.Fatalf("fault run moved: vt %v, stats %+v; want vt %v, stats %+v", t1, s1, wantVT, want)
	}
}

// TestPersistentLinkFailureIsFatal: a link that fails its health
// check leaves the target dead on the vehicle it was built on, and
// every later operation fails at once with a fatal error.
func TestPersistentLinkFailureIsFatal(t *testing.T) {
	clock := &vtime.Clock{}
	fp := newFPGA(t, clock, false)
	fp.InjectFaults(FaultSchedule{Seed: 1, FailAfter: 1})
	p, _ := fp.Port("gpio0")
	if err := p.WriteReg(0x00, 0x11); err != nil {
		t.Fatal(err)
	}
	err := p.WriteReg(0x00, 0x22)
	if err == nil {
		t.Fatal("write on a dead link must fail")
	}
	if Classify(err) != Fatal {
		t.Fatalf("error %v, want fatal class", err)
	}
	if fp.Kind() != KindFPGA {
		t.Fatalf("kind after link death %q, want %q", fp.Kind(), KindFPGA)
	}
	// Further use reports the death immediately.
	if _, err := p.ReadReg(0x00); err == nil || Classify(err) != Fatal {
		t.Fatalf("dead target accepted an op: %v", err)
	}
}

func TestRestoreRejectsCorruptedState(t *testing.T) {
	tg := newSim(t, &vtime.Clock{})
	p, _ := tg.Port("gpio0")
	p.WriteReg(0x00, 0x42)
	st, err := tg.Save()
	if err != nil {
		t.Fatal(err)
	}

	unknown := st.Clone()
	unknown["bogus"] = &sim.HWState{}
	if err := tg.Restore(unknown); Classify(err) != Integrity {
		t.Fatalf("unknown peripheral: %v, want integrity error", err)
	}

	badReg := st.Clone()
	badReg["gpio0"].Regs["no_such_register"] = 7
	if err := tg.Restore(badReg); Classify(err) != Integrity {
		t.Fatalf("unknown register: %v, want integrity error", err)
	}

	if err := tg.Restore(nil); Classify(err) != Integrity {
		t.Fatalf("nil state: %v, want integrity error", err)
	}

	// The rejected restores must not have touched the hardware.
	if v, _ := p.ReadReg(0x00); v != 0x42 {
		t.Fatalf("rejected restore mutated state: %#x", v)
	}
}

func TestStateClone(t *testing.T) {
	tg := newSim(t, &vtime.Clock{})
	p, _ := tg.Port("gpio0")
	p.WriteReg(0x00, 0x10)
	st, _ := tg.Save()
	c := st.Clone()
	c["gpio0"].Regs["out"] = 0xFFFF
	if st["gpio0"].Regs["out"] == 0xFFFF {
		t.Fatal("Clone aliases the original")
	}
	// A nil entry clones as the empty state it encodes and hashes as.
	if hw := (State{"p": nil}).Clone()["p"]; hw == nil || len(hw.Regs)+len(hw.Mems)+len(hw.Inputs) != 0 {
		t.Fatalf("nil entry cloned as %+v", hw)
	}
}

func TestResetRestoresPowerOnState(t *testing.T) {
	// The UART's baud divisor is loaded by the reset line; a warm
	// Reset must return to that power-on state, not to all-zeros.
	tg := newSim(t, &vtime.Clock{}, PeriphConfig{Name: "uart0", Periph: "uart"})
	div, err := tg.Peek("uart0", "bauddiv")
	if err != nil {
		t.Fatal(err)
	}
	if div == 0 {
		t.Fatal("power-on reset did not initialize bauddiv")
	}
	if err := tg.Advance(50); err != nil {
		t.Fatal(err)
	}
	if err := tg.Reset(); err != nil {
		t.Fatal(err)
	}
	got, _ := tg.Peek("uart0", "bauddiv")
	if got != div {
		t.Fatalf("bauddiv after warm reset %d, want %d", got, div)
	}
}
