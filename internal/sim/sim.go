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
// hardware snapshots are cheap copies: a snapshot (HWState) is a value
// vector in the design's Layout, and a state of another layout is
// refused before any bit moves. Names are read only where a state
// leaves the process or crosses between builds, and in error text.
package sim

import (
	"fmt"
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

// DefaultEngine holds the EngineKind New uses, process-wide:
// EngineAuto unless an engine-identity test stores another kind to run
// the same scenario on each engine. No flag or option sets it.
var DefaultEngine atomic.Int32

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

	// layout is the shape of every state Snapshot returns and Restore
	// accepts; sigs (registers, inputs) and mems are its elements, at
	// vector positions pos (by signal ID) and memPos (by memory ID).
	layout *Layout
	sigs   []*rtl.Signal
	mems   []*rtl.Memory
	pos    []int
	memPos []int

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
	return NewEngine(d, EngineKind(DefaultEngine.Load()))
}

// NewEngine creates a simulator with an explicit engine choice.
func NewEngine(d *rtl.Design, kind EngineKind) (*Simulator, error) {
	s := &Simulator{
		design:    d,
		state:     rtl.NewState(d),
		dirtySigs: newIDSet(len(d.Signals)),
		dirtyMems: newIDSet(len(d.Memories)),
	}
	s.buildLayout()
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
