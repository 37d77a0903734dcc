package target

import (
	"fmt"

	"hardsnap/internal/rtl"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/sim"
)

// Scan-chain snapshotting: the FPGA target's state leaves and enters
// the fabric one bit per scan-clock edge through the chain the
// instrumentation pass stitched into the design. Nothing is modeled:
// the bits below are produced by actually clocking the instrumented
// RTL in scan mode, so the linear-in-flops cost the paper measures
// (E2) is emergent from the real chain length. Pins and chain
// positions are resolved to simulator IDs when the peripheral is
// built, so one shifted bit costs one clock of the netlist.

const (
	sigScanEnable = "scan_enable"
	sigScanIn     = "scan_in"
	sigScanOut    = "scan_out"
)

// scanPort is one peripheral's scan chain as the debugger drives it:
// the three scan pins and the chain in shift order, as simulator IDs.
type scanPort struct {
	enable, in, out int
	// chain lists the state bits in the order they leave scan_out
	// (and enter scan_in on restore): the reverse of the layout,
	// whose last position drives scan_out.
	chain []chainBit
	// regs are the design's registers; vals (by signal ID) and mems
	// (by memory ID) are the per-shift scratch of one save or restore.
	regs []*rtl.Signal
	vals []uint64
	mems [][]uint64
}

// chainBit is one scan-chain position: bit of register id, or of word
// of memory id when mem is set.
type chainBit struct {
	id   int
	word uint
	bit  uint
	mem  bool
}

// resolveScan binds the scan pins and every layout position of d to
// simulator IDs. Any name the design does not hold is an error naming
// it, so a mismatched build fails here, not on the first shift.
func resolveScan(d *rtl.Design, layout []scanchain.BitRef) (*scanPort, error) {
	sc := &scanPort{
		regs:  d.Regs(),
		vals:  make([]uint64, len(d.Signals)),
		mems:  make([][]uint64, len(d.Memories)),
		chain: make([]chainBit, len(layout)),
	}
	if err := bindPins(d, "scan port",
		pin{sigScanEnable, true, &sc.enable}, pin{sigScanIn, true, &sc.in}, pin{sigScanOut, false, &sc.out}); err != nil {
		return nil, err
	}
	for k, ref := range layout {
		c := chainBit{word: ref.Index, bit: ref.Bit, mem: ref.IsMem}
		if ref.IsMem {
			m, ok := d.MemoryByName(ref.Name)
			if !ok || ref.Index >= m.Depth || ref.Bit >= m.Width {
				return nil, fmt.Errorf("scan chain: no memory bit %s[%d][%d]", ref.Name, ref.Index, ref.Bit)
			}
			c.id = m.ID
		} else {
			sig, ok := d.SignalByName(ref.Name)
			if !ok || !sig.IsReg || ref.Bit >= sig.Width {
				return nil, fmt.Errorf("scan chain: no register bit %s[%d]", ref.Name, ref.Bit)
			}
			c.id = sig.ID
		}
		sc.chain[len(layout)-1-k] = c
	}
	return sc, nil
}

// scanSave shifts the whole chain out non-destructively: each bit
// captured at scan_out is fed straight back into scan_in, so after a
// full rotation the fabric state is unchanged.
func (t *Target) scanSave(inst *periphInst) (*sim.HWState, error) {
	s, d, sc := inst.sim, inst.design, inst.scan

	// The debugger drives the pins, so it knows their levels without
	// fabric visibility.
	inputs := make(map[string]uint64, len(d.Inputs))
	for _, in := range d.Inputs {
		inputs[in.Name] = s.PeekID(in.ID)
	}
	clear(sc.vals)
	for _, m := range d.Memories {
		sc.mems[m.ID] = make([]uint64, m.Depth)
	}

	t.clock.Advance(t.costs.SnapshotFixed) // scan command setup
	s.SetInputID(sc.enable, 1)
	if err := s.EvalComb(); err != nil {
		return nil, fatalf("scan save "+inst.cfg.Name, "%v", err)
	}
	for _, c := range sc.chain {
		b := s.PeekID(sc.out) & 1
		s.SetInputID(sc.in, b)
		if err := s.StepCycle(); err != nil {
			return nil, fatalf("scan save "+inst.cfg.Name, "%v", err)
		}
		t.clock.Advance(t.costs.SnapshotPerBit)
		if b != 0 {
			if c.mem {
				sc.mems[c.id][c.word] |= 1 << c.bit
			} else {
				sc.vals[c.id] |= 1 << c.bit
			}
		}
	}

	hw := &sim.HWState{
		Regs:   make(map[string]uint64, len(sc.regs)),
		Mems:   make(map[string][]uint64, len(d.Memories)),
		Inputs: inputs,
	}
	for _, sig := range sc.regs {
		hw.Regs[sig.Name] = sc.vals[sig.ID]
	}
	for _, m := range d.Memories {
		hw.Mems[m.Name] = sc.mems[m.ID]
	}
	clear(sc.mems)
	if err := inst.exitScanMode(inputs); err != nil {
		return nil, err
	}
	return hw, nil
}

// scanRestore shifts a snapshot into the chain, bit for the last
// layout position first (the capture order), destroying whatever
// state the fabric held.
func (t *Target) scanRestore(inst *periphInst, hw *sim.HWState) error {
	s, d, sc := inst.sim, inst.design, inst.scan
	if hw == nil {
		hw = &sim.HWState{}
	}
	for _, sig := range sc.regs {
		sc.vals[sig.ID] = hw.Regs[sig.Name]
	}
	for _, m := range d.Memories {
		sc.mems[m.ID] = hw.Mems[m.Name]
	}
	defer clear(sc.mems)

	t.clock.Advance(t.costs.SnapshotFixed)
	s.SetInputID(sc.enable, 1)
	for _, c := range sc.chain {
		var b uint64
		if c.mem {
			if words := sc.mems[c.id]; c.word < uint(len(words)) {
				b = (words[c.word] >> c.bit) & 1
			}
		} else {
			b = (sc.vals[c.id] >> c.bit) & 1
		}
		s.SetInputID(sc.in, b)
		if err := s.StepCycle(); err != nil {
			return fatalf("scan restore "+inst.cfg.Name, "%v", err)
		}
		t.clock.Advance(t.costs.SnapshotPerBit)
	}
	return inst.exitScanMode(hw.Inputs)
}

// exitScanMode leaves scan mode and re-drives functional pin levels,
// then settles combinational logic.
func (inst *periphInst) exitScanMode(inputs map[string]uint64) error {
	s, sc := inst.sim, inst.scan
	s.SetInputID(sc.enable, 0)
	s.SetInputID(sc.in, 0)
	for _, in := range inst.design.Inputs {
		if in.ID == sc.enable || in.ID == sc.in {
			continue
		}
		if v, ok := inputs[in.Name]; ok {
			s.SetInputID(in.ID, v)
		}
	}
	if err := s.EvalComb(); err != nil {
		return fatalf("scan "+inst.cfg.Name, "%v", err)
	}
	return nil
}
