// Package symexec implements the selective symbolic executor for HS32
// firmware: the software half of HardSnap's virtual machine. It is a
// KLEE-style forking interpreter — each state carries a symbolic
// register file, a copy-on-write symbolic memory overlay and a path
// condition — extended, as in the paper, with a hardware snapshot
// identifier per state and a concretization policy at the
// hardware/software boundary.
package symexec

import (
	"fmt"

	"hardsnap/internal/expr"
	"hardsnap/internal/isa"
	"hardsnap/internal/vm"
)

// Status describes where a state's execution stands.
type Status int

// State statuses.
const (
	StatusRunning Status = iota + 1
	StatusHalted
	StatusAborted
	StatusAssertFail
	StatusFault
	StatusInfeasible
	StatusBudget
	// StatusUnknown marks a state parked because the solver could not
	// decide its path condition within the conflict budget. Unlike
	// StatusInfeasible the path may still be feasible; it is reported
	// separately so budget-starved paths are never silently pruned.
	StatusUnknown
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusAborted:
		return "aborted"
	case StatusAssertFail:
		return "assert-failed"
	case StatusFault:
		return "fault"
	case StatusInfeasible:
		return "infeasible"
	case StatusBudget:
		return "budget"
	case StatusUnknown:
		return "unknown"
	}
	return "?"
}

// SnapshotID identifies the hardware snapshot bound to a software
// state. Zero means "no hardware snapshot yet" (the state has not
// touched hardware).
type SnapshotID uint64

// State is one symbolic execution state: the software 3-tuple
// {PC, stack/registers, memory} of the paper plus the hardware
// snapshot identifier that extends it to a full HW/SW state.
type State struct {
	ID     uint64
	Parent uint64

	PC   uint32
	Regs [isa.NumRegs]*expr.Term

	// Mem is the symbolic memory overlay over the concrete image.
	Mem *Memory

	// Constraints is the path condition (conjunction of width-1
	// terms).
	Constraints []*expr.Term
	// Witness is an assignment under which every term in Constraints
	// evaluates to 1 (unassigned variables read as 0, so an empty path
	// condition is witnessed by an empty map). Each new constraint keeps
	// it if it already satisfies the constraint and otherwise replaces
	// it with the solver model that admitted the constraint. At a
	// symbolic branch it decides one side without a solver query. Nil
	// means no witness is known (concolic replay). The map is shared by
	// forks and clones and is never mutated in place.
	Witness expr.Assignment

	// HWSnapshot binds this state to its private hardware state.
	HWSnapshot SnapshotID

	// Interrupt handling state (mirrors the concrete VM).
	EPC        uint32
	InHandler  bool
	IRQPending uint32

	Status Status
	// Err carries detail for StatusFault.
	Err error
	// Steps counts retired instructions on this path.
	Steps uint64
	// Console accumulates putchar/putint output.
	Console []byte
	// Model holds a satisfying assignment when the state terminated
	// in a way worth reporting (assert failure, abort).
	Model expr.Assignment
	// SymInputs records every make-symbolic buffer registered on this
	// path, in program order; used for test-vector extraction.
	SymInputs []SymInput
}

// SymInput describes one make-symbolic buffer.
type SymInput struct {
	Tag  uint32
	Addr uint32
	Len  uint32
}

// Fork clones the state for a new path.
func (st *State) Fork(newID uint64) *State {
	c := &State{
		ID:         newID,
		Parent:     st.ID,
		PC:         st.PC,
		Regs:       st.Regs,
		Mem:        st.Mem.Clone(),
		HWSnapshot: 0, // assigned by the snapshot controller on demand
		EPC:        st.EPC,
		InHandler:  st.InHandler,
		IRQPending: st.IRQPending,
		Status:     st.Status,
		Steps:      st.Steps,
		Witness:    st.Witness,
	}
	c.Constraints = make([]*expr.Term, len(st.Constraints), len(st.Constraints)+1)
	copy(c.Constraints, st.Constraints)
	c.Console = append([]byte(nil), st.Console...)
	c.SymInputs = append([]SymInput(nil), st.SymInputs...)
	return c
}

// Clone copies the state verbatim — same ID, parent, status and steps
// — so the copy can be executed and mutated without disturbing the
// original (replayed subtree attempts in the parallel engine). The
// hardware snapshot reference is carried over as-is; a caller that
// will release the clone's snapshot must first rebind it to a
// reference the caller owns.
func (st *State) Clone() *State {
	c := *st
	if st.Mem != nil {
		c.Mem = st.Mem.Clone()
	}
	c.Constraints = append([]*expr.Term(nil), st.Constraints...)
	c.Console = append([]byte(nil), st.Console...)
	c.SymInputs = append([]SymInput(nil), st.SymInputs...)
	if st.Model != nil {
		c.Model = make(expr.Assignment, len(st.Model))
		for k, v := range st.Model {
			c.Model[k] = v
		}
	}
	return &c
}

// AddConstraint conjoins a path constraint. The caller sets Witness
// to match.
func (st *State) AddConstraint(c *expr.Term) {
	st.Constraints = append(st.Constraints, c)
}

// Memory is a two-level symbolic memory: a shared concrete backing
// image (the loaded firmware, never mutated) plus a per-state overlay
// of symbolic or written bytes. Forking copies only the overlay.
type Memory struct {
	base    uint32
	backing []byte // shared, read-only
	overlay map[uint32]*expr.Term
}

// NewMemory wraps a concrete RAM image.
func NewMemory(base uint32, image []byte) *Memory {
	return &Memory{
		base:    base,
		backing: image,
		overlay: make(map[uint32]*expr.Term),
	}
}

// Clone copies the overlay (the backing is shared).
func (m *Memory) Clone() *Memory {
	o := make(map[uint32]*expr.Term, len(m.overlay))
	for k, v := range m.overlay {
		o[k] = v
	}
	return &Memory{base: m.base, backing: m.backing, overlay: o}
}

// InRange reports whether [addr, addr+size) lies inside RAM.
func (m *Memory) InRange(addr uint32, size uint32) bool {
	return addr >= m.base && addr-m.base+size <= uint32(len(m.backing))
}

// LoadByte returns the 8-bit term at addr.
func (m *Memory) LoadByte(b *expr.Builder, addr uint32) (*expr.Term, error) {
	if !m.InRange(addr, 1) {
		return nil, &vm.FaultError{Addr: addr, Msg: "symbolic load outside RAM"}
	}
	if t, ok := m.overlay[addr]; ok {
		return t, nil
	}
	return b.Const(uint64(m.backing[addr-m.base]), 8), nil
}

// StoreByte stores an 8-bit term at addr.
func (m *Memory) StoreByte(addr uint32, t *expr.Term) error {
	if !m.InRange(addr, 1) {
		return &vm.FaultError{Addr: addr, Msg: "symbolic store outside RAM"}
	}
	if t.Width() != 8 {
		return fmt.Errorf("symexec: StoreByte with width %d", t.Width())
	}
	m.overlay[addr] = t
	return nil
}

// Read composes a little-endian value of size bytes (1, 2 or 4).
func (m *Memory) Read(b *expr.Builder, addr uint32, size int) (*expr.Term, error) {
	var out *expr.Term
	for i := size - 1; i >= 0; i-- {
		byteT, err := m.LoadByte(b, addr+uint32(i))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = byteT
		} else {
			out = b.Concat(out, byteT)
		}
	}
	return out, nil
}

// Write decomposes a value into little-endian bytes.
func (m *Memory) Write(b *expr.Builder, addr uint32, size int, t *expr.Term) error {
	for i := 0; i < size; i++ {
		byteT := b.Extract(t, uint(8*i), 8)
		if err := m.StoreByte(addr+uint32(i), byteT); err != nil {
			return err
		}
	}
	return nil
}

// ConcreteWord reads a 32-bit word that must be fully concrete (used
// for instruction fetch and vector table loads).
func (m *Memory) ConcreteWord(b *expr.Builder, addr uint32) (uint32, error) {
	t, err := m.Read(b, addr, 4)
	if err != nil {
		return 0, err
	}
	v, ok := t.Const()
	if !ok {
		return 0, &vm.FaultError{Addr: addr, Msg: "fetch of symbolic memory"}
	}
	return uint32(v), nil
}
