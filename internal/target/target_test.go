package target

import (
	"errors"
	"reflect"
	"slices"
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

// corpus lists the corpus peripherals.
var corpus = []string{"gpio", "timer", "crc32", "uart", "spi", "aes128", "regfile"}

// transferTime is the virtual time one Transfer of a corpus peripheral
// charges, scan FPGA to simulator or back: the scan save or restore
// plus the simulator's restore.
var transferTime = map[string]time.Duration{
	"gpio": 20061408, "timer": 20061496, "crc32": 20060968, "uart": 20063410,
	"spi": 20061254, "aes128": 20074234, "regfile": 20071616,
}

// TestTransferFPGAToSimulator moves every corpus peripheral from a
// scan FPGA to a simulator and back, from a state in which every
// register and memory word (the uart FIFO included) holds a value of
// its own. The destination must hold every register and memory word
// of the source and the same functional pin levels, the FPGA's scan
// pins must be low, and the transfer charges the pinned virtual time.
func TestTransferFPGAToSimulator(t *testing.T) {
	for _, kind := range corpus {
		want := transferTime[kind]
		for _, toSim := range []bool{true, false} {
			clock := &vtime.Clock{}
			cfg := PeriphConfig{Name: "p0", Periph: kind}
			fp, sm := newFPGA(t, clock, false, cfg), newSim(t, clock, cfg)
			from, to := fp, sm
			if !toSim {
				from, to = sm, fp
			}
			st, err := from.Save()
			if err != nil {
				t.Fatal(err)
			}
			hw := st.Get("p0")
			for i := range hw.Vals()[:stateWords(hw)] {
				hw.Vals()[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
			}
			if err := from.Restore(st); err != nil {
				t.Fatal(err)
			}
			p, _ := from.Port("p0")
			for off := uint32(0); off < 4; off++ {
				if err := p.WriteReg(off*4, 0x5A+off); err != nil {
					t.Fatal(err)
				}
			}
			if err := from.Advance(9); err != nil {
				t.Fatal(err)
			}

			before := clock.Now()
			if err := Transfer(from, to); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if got := clock.Now() - before; got != want {
				t.Errorf("%s to %s: transfer took %v of virtual time, want %v", kind, to.Kind(), got, want)
			}
			src, dst := from.snapshotRaw().Get("p0"), to.snapshotRaw().Get("p0")
			sl, dl := src.Layout(), dst.Layout()
			if !slices.Equal(sl.Regs, dl.Regs) || !slices.Equal(sl.Mems, dl.Mems) || !slices.Equal(sl.Depths, dl.Depths) {
				t.Fatalf("%s: the builds hold different registers or memories", kind)
			}
			n := stateWords(src)
			if sv, dv := src.Vals()[:n], dst.Vals()[:n]; !slices.Equal(sv, dv) {
				t.Errorf("%s to %s: registers and memory words %#x, source holds %#x", kind, to.Kind(), dv, sv)
			}
			for i, name := range dl.Inputs {
				if j, ok := slices.BinarySearch(sl.Inputs, name); ok && dst.Vals()[n+i] != src.Vals()[n+j] {
					t.Errorf("%s to %s: input %s is %#x, source drives %#x", kind, to.Kind(), name, dst.Vals()[n+i], src.Vals()[n+j])
				}
			}
			inst := fp.order[0]
			for _, id := range []int{inst.scan.enable, inst.scan.in} {
				if v := inst.sim.PeekID(id); v != 0 {
					t.Errorf("%s to %s: scan pin %s is %d", kind, to.Kind(), inst.design.Signals[id].Name, v)
				}
			}
		}
	}
}

// stateWords counts the registers and memory words of hw: its vector
// without the input pins.
func stateWords(hw *sim.HWState) int { return len(hw.Vals()) - len(hw.Layout().Inputs) }

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

func TestRestoreRejectsCorruptedState(t *testing.T) {
	tg := newSim(t, &vtime.Clock{})
	p, _ := tg.Port("gpio0")
	p.WriteReg(0x00, 0x42)
	st, err := tg.Save()
	if err != nil {
		t.Fatal(err)
	}

	unknown := append(st.Clone(), PeriphState{Name: "bogus"})
	if err := tg.Restore(unknown); Classify(err) != Integrity {
		t.Fatalf("unknown peripheral: %v, want integrity error", err)
	}

	l := *st.Get("gpio0").Layout()
	l.Regs = append(slices.Clone(l.Regs), "no_such_register")
	badReg := State{{Name: "gpio0", HW: *sim.NewHWState(&l, nil)}}
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

// Clone deep-copies the state. Only tests copy a whole State: the
// snapshot store and the targets copy one peripheral at a time.
func (s State) Clone() State {
	if s == nil {
		return nil
	}
	c := make(State, len(s))
	for i, e := range s {
		c[i] = PeriphState{e.Name, *e.HW.Clone()}
	}
	return c
}

func TestStateClone(t *testing.T) {
	tg := newSim(t, &vtime.Clock{})
	p, _ := tg.Port("gpio0")
	p.WriteReg(0x00, 0x10)
	st, _ := tg.Save()
	c := st.Clone()
	c.Get("gpio0").Vals()[0] ^= 0xFFFF
	if slices.Equal(st.Get("gpio0").Vals(), c.Get("gpio0").Vals()) {
		t.Fatal("Clone aliases the original")
	}
	// A zero entry clones as the empty state it encodes and hashes as.
	if hw := (State{{Name: "p"}}).Clone().Get("p"); hw == nil || len(hw.Vals()) != 0 || hw.Layout().Len() != 0 {
		t.Fatalf("zero entry cloned as %+v", hw)
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

// TestRestoreRefusesPartialState: a state must cover every hosted
// peripheral, once each, in name order. An empty state, one that
// leaves a peripheral out or empty, one out of name order and one
// naming a peripheral twice are integrity errors on every restore
// path, and the hardware keeps its state: nothing is reset to zero
// (the uart's bauddiv is 8 at power-on), and no peripheral the state
// does hold is written.
func TestRestoreRefusesPartialState(t *testing.T) {
	tg := newSim(t, &vtime.Clock{}, PeriphConfig{Name: "gpio0", Periph: "gpio"}, PeriphConfig{Name: "uart0", Periph: "uart"})
	p, _ := tg.Port("gpio0")
	if err := p.WriteReg(0x00, 0x42); err != nil {
		t.Fatal(err)
	}
	st, err := tg.Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteReg(0x00, 0x43); err != nil {
		t.Fatal(err)
	}
	before := tg.snapshotRaw()
	for _, op := range []struct {
		name  string
		apply func(State) error
	}{
		{"Restore", tg.Restore},
		{"RestoreDelta", func(s State) error { _, err := tg.RestoreDelta(s); return err }},
		{"AdoptState", tg.AdoptState},
	} {
		gpio, uart := st[0], st[1]
		for _, partial := range []State{
			{}, {gpio}, {uart}, {gpio, {Name: "uart0"}},
			{uart, gpio}, {gpio, gpio, uart}, {gpio, uart, uart},
		} {
			if err := op.apply(partial); Classify(err) != Integrity {
				t.Fatalf("%s of a state holding %v: %v, want integrity error", op.name, partial, err)
			}
			if after := tg.snapshotRaw(); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused %s moved the hardware", op.name)
			}
		}
	}
	if div, _ := tg.Peek("uart0", "bauddiv"); div != 8 {
		t.Fatalf("bauddiv %d after refused restores, want 8", div)
	}
}

// TestStateMovesAllocate gates the allocations of the simulator's
// state moves on every corpus peripheral: a Snapshot allocates the
// state and its vector, whatever the design, a Target.Save the State
// and the vector, and a Restore or RestoreDirty of a state of the same
// layout allocates nothing.
func TestStateMovesAllocate(t *testing.T) {
	var snap float64
	for i, kind := range corpus {
		tg := newSim(t, &vtime.Clock{}, PeriphConfig{Name: "p0", Periph: kind})
		s, err := tg.Simulator("p0")
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Advance(5); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := tg.Save(); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("%s: Target.Save makes %v allocations, want at most 2", kind, n)
		}
		hw := s.Snapshot()
		n := testing.AllocsPerRun(100, func() { hw = s.Snapshot() })
		if n > 3 || i > 0 && n != snap {
			t.Errorf("%s: Snapshot makes %v allocations, want at most 3 and %v as on %s", kind, n, snap, corpus[0])
		}
		snap = n
		if n := testing.AllocsPerRun(100, func() {
			if err := s.Restore(hw); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Restore makes %v allocations, want 0", kind, n)
		}
		s.ClearDirty() // hw is the live state: the anchor RestoreDirty needs
		if n := testing.AllocsPerRun(100, func() {
			if err := tg.Advance(1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RestoreDirty(hw); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: RestoreDirty makes %v allocations, want 0", kind, n)
		}
	}
}
