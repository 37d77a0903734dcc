// Package sim is the cycle-accurate simulator for elaborated RTL
// designs — HardSnap's equivalent of a Verilator-generated model. Each
// StepCycle evaluates combinational logic, executes every sequential
// block with nonblocking semantics, commits register/memory updates at
// the clock edge and re-settles combinational logic.
//
// Because simulated state is ordinary process memory, the simulator
// offers the full-visibility/full-controllability interface the paper
// attributes to the simulator target: any signal can be read between
// cycles, any register or memory set by a restore, and complete
// hardware snapshots are cheap deep copies.
package sim

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"hardsnap/internal/rtl"
	"hardsnap/internal/rtl/bc"
	"hardsnap/internal/verilog"
)

// EngineKind selects how a Simulator evaluates the netlist.
type EngineKind int

const (
	// EngineAuto compiles the design to bytecode and silently falls
	// back to the interpreter if compilation is rejected. This is the
	// default: compiled designs run the bc engine with event-driven
	// activation, everything else behaves exactly as before.
	EngineAuto EngineKind = iota
	// EngineCompiled requires bytecode; construction fails if the
	// design cannot be compiled.
	EngineCompiled
	// EngineInterp forces the AST interpreter.
	EngineInterp
)

// String names the engine for reports and flags.
func (k EngineKind) String() string {
	switch k {
	case EngineAuto:
		return "auto"
	case EngineCompiled:
		return "compiled"
	case EngineInterp:
		return "interp"
	}
	return "?"
}

// defaultEngine is the process-wide engine used by New; hssim's
// -interp flag and the experiment harness's engine-identity test flip
// it for A/B runs.
var defaultEngine atomic.Int32

// SetDefaultEngine changes the engine New uses.
func SetDefaultEngine(k EngineKind) { defaultEngine.Store(int32(k)) }

// DefaultEngine returns the engine New uses.
func DefaultEngine() EngineKind { return EngineKind(defaultEngine.Load()) }

// Simulator drives one elaborated design instance.
type Simulator struct {
	design *rtl.Design
	state  *rtl.State
	cycles uint64

	// eng is the compiled bytecode engine, nil when interpreting. It
	// shares s.state, so Peek/Snapshot/EvalAssertion observe the same
	// values either way; external state changes must be reported to it
	// so event-driven activation re-runs affected nodes.
	eng *bc.Engine

	// OnCycle, when set, is invoked after each completed cycle with
	// the cycle number; used by the tracer.
	OnCycle func(cycle uint64)

	writeBuf []rtl.Write
	// nregs counts the design's registers, to size Snapshot's map.
	nregs int

	// gen counts observed mutations of snapshot-relevant state
	// (registers, memories, input pins). It only moves when a value
	// actually changes, so idle designs clocking away do not look
	// dirty to the snapshotting layer.
	gen uint64
	// dirtySigs/dirtyMems record which registers/inputs (by signal
	// ID) and memories (by memory ID, whole-array granularity) have
	// changed since the last ClearDirty — the basis for delta
	// restores.
	dirtySigs idSet
	dirtyMems idSet
}

// idSet is a set of element IDs: one membership flag per ID plus the
// members in insertion order, so adding is a flag test, and clearing
// and walking cost the number of members, not the number of IDs.
type idSet struct {
	in  []bool
	ids []int
}

func newIDSet(n int) idSet { return idSet{in: make([]bool, n)} }

func (d *idSet) add(id int) {
	if !d.in[id] {
		d.in[id] = true
		d.ids = append(d.ids, id)
	}
}

func (d *idSet) clear() {
	for _, id := range d.ids {
		d.in[id] = false
	}
	d.ids = d.ids[:0]
}

// New creates a simulator with zero-initialized state (the FPGA-like
// power-on state of the two-state model), with combinational logic
// settled, using the process default engine.
func New(d *rtl.Design) (*Simulator, error) {
	return NewEngine(d, DefaultEngine())
}

// NewEngine creates a simulator with an explicit engine choice.
func NewEngine(d *rtl.Design, kind EngineKind) (*Simulator, error) {
	s := &Simulator{
		design:    d,
		state:     rtl.NewState(d),
		dirtySigs: newIDSet(len(d.Signals)),
		dirtyMems: newIDSet(len(d.Memories)),
		nregs:     len(d.Regs()),
	}
	switch kind {
	case EngineAuto:
		if prog, err := bc.Compile(d); err == nil {
			s.eng = bc.NewEngine(prog, s.state)
		}
	case EngineCompiled:
		prog, err := bc.Compile(d)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		s.eng = bc.NewEngine(prog, s.state)
	case EngineInterp:
	default:
		return nil, fmt.Errorf("sim: unknown engine kind %d", kind)
	}
	if err := s.EvalComb(); err != nil {
		return nil, err
	}
	return s, nil
}

// EngineStats returns the compiled engine's work counters; ok is
// false when interpreting.
func (s *Simulator) EngineStats() (bc.Stats, bool) {
	if s.eng == nil {
		return bc.Stats{}, false
	}
	return s.eng.Stats(), true
}

// Gen returns the mutation generation: a counter that advances only
// when snapshot-relevant state (a register, memory element or input
// pin) actually changes value. Two equal generations prove the
// hardware state is bit-identical.
func (s *Simulator) Gen() uint64 { return s.gen }

// ClearDirty re-anchors dirty tracking: the current state becomes the
// reference against which RestoreDirty operates.
func (s *Simulator) ClearDirty() {
	s.dirtySigs.clear()
	s.dirtyMems.clear()
}

// widthMask is the value mask of a w-bit element (mirrors the
// truncation rtl.Write.Apply performs on memory writes).
func widthMask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// markSig records a value change of a snapshot-relevant signal.
func (s *Simulator) markSig(id int) {
	s.gen++
	s.dirtySigs.add(id)
}

// markMem records a value change inside a memory.
func (s *Simulator) markMem(id int) {
	s.gen++
	s.dirtyMems.add(id)
}

// Design returns the simulated design.
func (s *Simulator) Design() *rtl.Design { return s.design }

// SetInput drives a top-level input by name: one lookup, then
// SetInputID.
func (s *Simulator) SetInput(name string, v uint64) error {
	sig, ok := s.design.SignalByName(name)
	if !ok || !sig.IsInput {
		return fmt.Errorf("sim: no input named %q", name)
	}
	s.SetInputID(sig.ID, v)
	return nil
}

// SetInputID drives the top-level input with signal ID id, which the
// caller resolved once (Design().SignalByName). The value is truncated
// to the input's width — the same truncation rtl.Write.Apply performs
// — so over-wide drives cannot leave junk above the width in
// State.Vals (which Snapshot captures, making semantically identical
// states hash differently).
func (s *Simulator) SetInputID(id int, v uint64) {
	s.write(s.design.Signals[id], v)
}

// Peek reads any signal by hierarchical name: one lookup, then PeekID.
func (s *Simulator) Peek(name string) (uint64, error) {
	sig, ok := s.design.SignalByName(name)
	if !ok {
		return 0, fmt.Errorf("sim: no signal named %q", name)
	}
	return s.PeekID(sig.ID), nil
}

// PeekID reads the signal with ID id.
func (s *Simulator) PeekID(id int) uint64 { return s.state.Vals[id] }

// write stores v, truncated to the signal's width, with change
// detection: a changed register or input is dirtied, and any change
// wakes the nodes sensitive to the signal.
func (s *Simulator) write(sig *rtl.Signal, v uint64) {
	v &= widthMask(sig.Width)
	if s.state.Vals[sig.ID] != v {
		if sig.IsReg || sig.IsInput {
			s.markSig(sig.ID)
		}
		s.state.Vals[sig.ID] = v
		if s.eng != nil {
			s.eng.MarkSignal(sig.ID)
		}
	}
}

// EvalAssertion evaluates a property expression against the current
// state under the given scope, returning whether it holds (non-zero).
func (s *Simulator) EvalAssertion(e verilog.Expr, scope *rtl.Scope) (bool, error) {
	v, err := rtl.EvalExpr(e, scope, s.state)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// EvalComb settles combinational logic (nodes run in topological
// order, once). The compiled engine runs only nodes whose inputs
// changed since their last run; the interpreter runs all of them.
func (s *Simulator) EvalComb() error {
	if s.eng != nil {
		s.eng.Settle()
		return nil
	}
	for _, c := range s.design.Combs {
		if err := c.ExecComb(s.state); err != nil {
			return err
		}
	}
	return nil
}

// StepCycle advances the design by one clock cycle.
func (s *Simulator) StepCycle() error {
	if err := s.EvalComb(); err != nil {
		return err
	}
	s.writeBuf = s.writeBuf[:0]
	if s.eng != nil {
		s.eng.RunSeq(&s.writeBuf)
	} else {
		for _, b := range s.design.Seqs {
			if err := b.ExecSeq(s.state, &s.writeBuf); err != nil {
				return err
			}
		}
	}
	s.commitWrites()
	if err := s.EvalComb(); err != nil {
		return err
	}
	s.cycles++
	if s.OnCycle != nil {
		s.OnCycle(s.cycles)
	}
	return nil
}

// commitWrites applies buffered nonblocking writes with change
// detection: a write that alters a register or memory element bumps
// the mutation generation, dirties the element for delta restores,
// and (under the compiled engine) wakes every node sensitive to it.
func (s *Simulator) commitWrites() {
	for i := range s.writeBuf {
		w := &s.writeBuf[i]
		id := int(w.ID)
		if w.Mem {
			if m := s.state.Mems[id]; w.Idx < uint64(len(m)) && m[w.Idx] != w.Val&w.Mask {
				s.markMem(id)
				if s.eng != nil {
					s.eng.MarkMemory(id)
				}
			}
		} else if old := s.state.Vals[id]; (old&^w.Mask)|(w.Val&w.Mask) != old {
			s.markSig(id)
			if s.eng != nil {
				s.eng.MarkSignal(id)
			}
		}
		w.Apply(s.state)
	}
}

// Run executes n cycles.
func (s *Simulator) Run(n uint64) error {
	for i := uint64(0); i < n; i++ {
		if err := s.StepCycle(); err != nil {
			return err
		}
	}
	return nil
}

// HWState is a complete, portable hardware snapshot: every register
// and memory element by hierarchical name, plus top-level input pins.
// Name-keyed state transfers between different executions of the same
// peripheral (e.g. simulator target and FPGA target).
type HWState struct {
	Regs   map[string]uint64   `json:"regs"`
	Mems   map[string][]uint64 `json:"mems"`
	Inputs map[string]uint64   `json:"inputs"`
}

// Clone deep-copies the state. A nil state is the empty one, here as
// in Restore and in the state's byte form (internal/snapshot).
func (hw *HWState) Clone() *HWState {
	if hw == nil {
		return &HWState{}
	}
	c := &HWState{
		Regs:   maps.Clone(hw.Regs),
		Mems:   make(map[string][]uint64, len(hw.Mems)),
		Inputs: maps.Clone(hw.Inputs),
	}
	for name, words := range hw.Mems {
		c.Mems[name] = slices.Clone(words)
	}
	return c
}

// Snapshot captures the full hardware state.
func (s *Simulator) Snapshot() *HWState {
	hw := &HWState{
		Regs:   make(map[string]uint64, s.nregs),
		Mems:   make(map[string][]uint64, len(s.design.Memories)),
		Inputs: make(map[string]uint64, len(s.design.Inputs)),
	}
	for _, sig := range s.design.Signals {
		if sig.IsReg {
			hw.Regs[sig.Name] = s.state.Vals[sig.ID]
		}
	}
	for _, m := range s.design.Memories {
		vals := make([]uint64, m.Depth)
		copy(vals, s.state.Mems[m.ID])
		hw.Mems[m.Name] = vals
	}
	for _, in := range s.design.Inputs {
		hw.Inputs[in.Name] = s.state.Vals[in.ID]
	}
	return hw
}

// Restore overwrites the hardware state from a snapshot and re-settles
// combinational logic. Snapshot entries that do not exist in this
// design are reported as an error (they indicate a design mismatch);
// registers of this design missing from the snapshot are reset to 0.
func (s *Simulator) Restore(hw *HWState) error {
	if hw == nil {
		hw = &HWState{}
	}
	for _, sig := range s.design.Signals {
		if sig.IsReg {
			s.write(sig, hw.Regs[sig.Name])
		}
	}
	for name := range hw.Regs {
		if sig, ok := s.design.SignalByName(name); !ok || !sig.IsReg {
			return fmt.Errorf("sim: snapshot register %q does not exist in design", name)
		}
	}
	for _, m := range s.design.Memories {
		src := hw.Mems[m.Name]
		dst := s.state.Mems[m.ID]
		for i := range dst {
			v := uint64(0)
			if i < len(src) {
				v = src[i] & widthMask(m.Width)
			}
			if dst[i] != v {
				s.markMem(m.ID)
				dst[i] = v
				if s.eng != nil {
					s.eng.MarkMemory(m.ID)
				}
			}
		}
	}
	for name := range hw.Mems {
		if _, ok := s.design.MemoryByName(name); !ok {
			return fmt.Errorf("sim: snapshot memory %q does not exist in design", name)
		}
	}
	for _, in := range s.design.Inputs {
		if v, ok := hw.Inputs[in.Name]; ok {
			s.write(in, v)
		}
	}
	return s.EvalComb()
}

// RestoreDirty overwrites only the registers, memories and inputs
// marked dirty since the last ClearDirty, reading their reference
// values from hw. It is equivalent to Restore(hw) — and returns the
// number of state bits written back — ONLY under the caller-guaranteed
// precondition that hw equals the state that was live at the last
// ClearDirty (the anchor): every clean element already holds its
// anchor value, so rewriting it would be a no-op. Dirty tracking is
// re-anchored on success.
func (s *Simulator) RestoreDirty(hw *HWState) (uint, error) {
	if hw == nil {
		hw = &HWState{}
	}
	var bits uint
	for _, id := range s.dirtySigs.ids {
		sig := s.design.Signals[id]
		switch {
		case sig.IsReg:
			// Same missing-entry semantics as Restore: absent
			// registers reset to 0.
			s.state.Vals[id] = hw.Regs[sig.Name] & widthMask(sig.Width)
		case sig.IsInput:
			// Absent inputs keep their current value, as in Restore.
			if v, ok := hw.Inputs[sig.Name]; ok {
				s.state.Vals[id] = v & widthMask(sig.Width)
			}
		}
		// Written blind (no old-value compare), so conservatively
		// wake everything sensitive to the signal.
		if s.eng != nil {
			s.eng.MarkSignal(id)
		}
		bits += sig.Width
	}
	for _, id := range s.dirtyMems.ids {
		m := s.design.Memories[id]
		src := hw.Mems[m.Name]
		dst := s.state.Mems[id]
		for i := range dst {
			if i < len(src) {
				dst[i] = src[i] & widthMask(m.Width)
			} else {
				dst[i] = 0
			}
		}
		if s.eng != nil {
			s.eng.MarkMemory(id)
		}
		bits += m.Depth * m.Width
	}
	if bits > 0 {
		// Preserve the invariant "gen unchanged ⟹ state unchanged"
		// for observers that sampled Gen before this restore.
		s.gen++
	}
	s.ClearDirty()
	if err := s.EvalComb(); err != nil {
		return bits, err
	}
	return bits, nil
}
