package target

import (
	"fmt"
	"reflect"

	"hardsnap/internal/rtl"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/sim"
	"hardsnap/internal/vtime"
)

// Scan-chain snapshotting: the FPGA target's state leaves and enters
// the fabric through the chain the instrumentation pass stitched into
// the design, one bit per scan-clock edge, and every save or restore
// is charged that shift's cost, so the linear-in-flops cost the paper
// measures (E2) follows from the real chain length. How the host
// moves the bits is decided per peripheral when it is built:
//
//   - When scanchain.ProveShift shows that one clock of the
//     instrumented netlist in scan mode is exactly a shift of the
//     chain, a save or restore copies the state (sim.Snapshot and
//     sim.Restore), leaving what a full rotation or shift-in would.
//   - Otherwise the instrumented RTL is clocked in scan mode, one
//     netlist cycle per chain bit. This netlist shift is also the
//     test oracle of the copy, and under the hardsnapaudit build tag
//     it re-runs every copy on a shadow simulator (see audit).
//
// Pins and chain positions are resolved to simulator IDs when the
// peripheral is built, so one shifted bit costs one clock of the
// netlist.

const (
	sigScanEnable = "scan_enable"
	sigScanIn     = "scan_in"
	sigScanOut    = "scan_out"
)

// scanPort is one peripheral's scan chain as the debugger drives it:
// the three scan pins and the chain in shift order, as simulator IDs
// and state-vector positions.
type scanPort struct {
	enable, in, out int
	// chain lists the state bits in the order they leave scan_out
	// (and enter scan_in on restore): the reverse of the chain
	// layout, whose last position drives scan_out.
	chain []chainBit
	// inputs are the signal IDs of the input pins, in the order of
	// the input section of the simulator's state vector.
	inputs []int
	// proof is why one scan-mode clock is not known to shift the
	// chain (scanchain.ProveShift); nil when it is, and then a save
	// or restore copies the state instead of clocking the netlist.
	proof error
}

// chainBit is one scan-chain position: bit of the state-vector word
// at pos (a register, or one word of a memory).
type chainBit struct {
	pos int
	bit uint
}

// resolveScan binds the scan pins of d to simulator IDs, and every
// position of the chain layout refs to a bit of the state vector of
// layout l. Any name the design does not hold is an error naming it,
// so a mismatched build fails here, not on the first shift.
func resolveScan(d *rtl.Design, l *sim.Layout, refs []scanchain.BitRef) (*scanPort, error) {
	sc := &scanPort{chain: make([]chainBit, len(refs))}
	if err := bindPins(d, "scan port",
		pin{sigScanEnable, true, &sc.enable}, pin{sigScanIn, true, &sc.in}, pin{sigScanOut, false, &sc.out}); err != nil {
		return nil, err
	}
	pos, n := make(map[string]int), 0
	for _, name := range l.Regs {
		pos[name], n = n, n+1
	}
	for i, name := range l.Mems {
		pos[name], n = n, n+l.Depths[i]
	}
	for _, name := range l.Inputs {
		sig, _ := d.SignalByName(name)
		sc.inputs = append(sc.inputs, sig.ID)
	}
	for k, ref := range refs {
		c := chainBit{bit: ref.Bit}
		if ref.IsMem {
			m, ok := d.MemoryByName(ref.Name)
			if !ok || ref.Index >= m.Depth || ref.Bit >= m.Width {
				return nil, fmt.Errorf("scan chain: no memory bit %s[%d][%d]", ref.Name, ref.Index, ref.Bit)
			}
			c.pos = pos[ref.Name] + int(ref.Index)
		} else {
			sig, ok := d.SignalByName(ref.Name)
			if !ok || !sig.IsReg || ref.Bit >= sig.Width {
				return nil, fmt.Errorf("scan chain: no register bit %s[%d]", ref.Name, ref.Bit)
			}
			c.pos = pos[ref.Name]
		}
		sc.chain[len(refs)-1-k] = c
	}
	sc.proof = scanchain.ProveShift(d, refs)
	return sc, nil
}

// scanSave reads a peripheral's state out through its scan chain into
// hw, charging the rotation's cost. A proven chain's rotation ends
// where it began, so the state is copied directly.
func (t *Target) scanSave(inst *periphInst, hw *sim.HWState) error {
	if inst.scan.proof != nil {
		return t.shiftSave(inst, hw)
	}
	t.clock.Advance(t.costs.SnapshotCost(uint(len(inst.scan.chain))))
	inst.sim.SnapshotTo(hw)
	// The copy moved no pin, so only the scan pins need driving low.
	if err := inst.exitScanMode(nil); err != nil {
		return err
	}
	return t.audit(inst, hw, hw, nil)
}

// scanRestore loads a peripheral's state through its scan chain,
// charging the shift's cost. A proven chain is written directly:
// sim.Restore masks each value to its width, as shifting hw in does.
func (t *Target) scanRestore(inst *periphInst, hw *sim.HWState) error {
	if inst.scan.proof != nil {
		return t.shiftRestore(inst, hw)
	}
	var before *sim.HWState
	if scanAudit {
		before = inst.sim.Snapshot()
	}
	t.clock.Advance(t.costs.SnapshotCost(uint(len(inst.scan.chain))))
	if err := inst.sim.Restore(hw); err != nil {
		return fatalf("scan restore "+inst.cfg.Name, "%v", err)
	}
	// sim.Restore drove the functional pins and settled the design;
	// only a scan pin it left high needs driving low and a settle.
	if s, sc := inst.sim, inst.scan; s.PeekID(sc.enable) != 0 || s.PeekID(sc.in) != 0 {
		if err := inst.exitScanMode(nil); err != nil {
			return err
		}
	}
	return t.audit(inst, before, nil, hw)
}

// audit re-runs a copied save or restore as the netlist shift, on a
// shadow simulator started from the state before, and fails if the
// two end apart: in a register, memory word, input or output, or in
// the saved state. Only builds with the hardsnapaudit tag run it.
func (t *Target) audit(inst *periphInst, before, saved, restored *sim.HWState) error {
	if !scanAudit {
		return nil
	}
	fail := func(format string, args ...any) error {
		return fatalf("scan audit "+inst.cfg.Name, format, args...)
	}
	shadow, err := sim.New(inst.design)
	if err == nil {
		err = shadow.Restore(before)
	}
	if err != nil {
		return fail("shadow simulator: %v", err)
	}
	sh := *inst
	sh.sim = shadow
	oracle := &Target{clock: &vtime.Clock{}, costs: t.costs}
	if restored == nil {
		got := &sim.HWState{}
		if err := oracle.shiftSave(&sh, got); err != nil {
			return err
		}
		if !reflect.DeepEqual(got, saved) {
			return fail("copied save %v, netlist shift saved %v", saved, got)
		}
	} else if err := oracle.shiftRestore(&sh, restored); err != nil {
		return err
	}
	if want, got := shadow.Snapshot(), inst.sim.Snapshot(); !reflect.DeepEqual(got, want) {
		return fail("copy left %v, netlist shift left %v", got, want)
	}
	for _, o := range inst.design.Outputs {
		if want, got := shadow.PeekID(o.ID), inst.sim.PeekID(o.ID); got != want {
			return fail("output %s is %#x after the copy, %#x after the netlist shift", o.Name, got, want)
		}
	}
	return nil
}

// shiftSave shifts the whole chain out into hw non-destructively: each
// bit captured at scan_out is fed straight back into scan_in, so after
// a full rotation the fabric state is unchanged.
func (t *Target) shiftSave(inst *periphInst, hw *sim.HWState) error {
	s, sc := inst.sim, inst.scan
	// The debugger drives the pins, so it knows their levels without
	// fabric visibility; the registers and memory words are cleared
	// and rebuilt from scan_out.
	s.SnapshotTo(hw)
	vals := hw.Vals()
	clear(vals[:len(vals)-len(sc.inputs)])

	t.clock.Advance(t.costs.SnapshotFixed) // scan command setup
	s.SetInputID(sc.enable, 1)
	if err := s.EvalComb(); err != nil {
		return fatalf("scan save "+inst.cfg.Name, "%v", err)
	}
	for _, c := range sc.chain {
		b := s.PeekID(sc.out) & 1
		s.SetInputID(sc.in, b)
		if err := s.StepCycle(); err != nil {
			return fatalf("scan save "+inst.cfg.Name, "%v", err)
		}
		t.clock.Advance(t.costs.SnapshotPerBit)
		vals[c.pos] |= b << c.bit
	}
	return inst.exitScanMode(nil)
}

// shiftRestore shifts a snapshot into the chain, bit for the last
// layout position first (the capture order), destroying whatever
// state the fabric held.
func (t *Target) shiftRestore(inst *periphInst, hw *sim.HWState) error {
	s, sc := inst.sim, inst.scan
	vals := hw.Vals()
	t.clock.Advance(t.costs.SnapshotFixed)
	s.SetInputID(sc.enable, 1)
	for _, c := range sc.chain {
		s.SetInputID(sc.in, vals[c.pos]>>c.bit&1)
		if err := s.StepCycle(); err != nil {
			return fatalf("scan restore "+inst.cfg.Name, "%v", err)
		}
		t.clock.Advance(t.costs.SnapshotPerBit)
	}
	return inst.exitScanMode(vals[len(vals)-len(sc.inputs):])
}

// exitScanMode leaves scan mode and re-drives the functional pins to
// inputs, one level per input pin in state-vector order (with nil,
// all keep their levels), then settles combinational logic.
func (inst *periphInst) exitScanMode(inputs []uint64) error {
	s, sc := inst.sim, inst.scan
	s.SetInputID(sc.enable, 0)
	s.SetInputID(sc.in, 0)
	for i, id := range sc.inputs {
		if inputs != nil && id != sc.enable && id != sc.in {
			s.SetInputID(id, inputs[i])
		}
	}
	if err := s.EvalComb(); err != nil {
		return fatalf("scan "+inst.cfg.Name, "%v", err)
	}
	return nil
}
