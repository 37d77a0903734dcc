package sim

import (
	"fmt"
	"slices"
	"strings"

	"hardsnap/internal/rtl"
)

// Layout is the shape of a hardware state vector: the registers, the
// memories (Mems[i] holds Depths[i] words) and the top-level input pins
// of one built design, each list sorted by name. A vector holds the
// register values, then every memory's words, then the input levels.
// A simulator's states share its layout; a state decoded from bytes
// has one of its own. Layouts are never modified.
type Layout struct {
	Regs, Mems, Inputs []string
	Depths             []int
}

// Len is the length of a state vector of layout l.
func (l *Layout) Len() int {
	n := len(l.Regs) + len(l.Inputs)
	for _, d := range l.Depths {
		n += d
	}
	return n
}

// Check refuses a state of layout o where l is expected, unless the
// two are one layout or list the same names and depths.
func (l *Layout) Check(o *Layout) error {
	switch {
	case l == o:
	case !slices.Equal(o.Regs, l.Regs):
		return fmt.Errorf("sim: state registers %q, design holds %q", o.Regs, l.Regs)
	case !slices.Equal(o.Mems, l.Mems) || !slices.Equal(o.Depths, l.Depths):
		return fmt.Errorf("sim: state memories %q of %d words, design holds %q of %d", o.Mems, o.Depths, l.Mems, l.Depths)
	case !slices.Equal(o.Inputs, l.Inputs):
		return fmt.Errorf("sim: state inputs %q, design holds %q", o.Inputs, l.Inputs)
	}
	return nil
}

// HWState is one peripheral's complete hardware state: a value vector
// in the order of its Layout.
type HWState struct {
	layout *Layout
	vals   []uint64
}

// NewHWState returns the state of layout l with vector vals, which
// must hold l.Len() values; nil vals is the all-zero vector.
func NewHWState(l *Layout, vals []uint64) *HWState {
	if vals == nil {
		vals = make([]uint64, l.Len())
	}
	return &HWState{l, vals}
}

// Layout returns the state's layout. A nil or zero state is the empty
// one, here as in the state's byte form (internal/snapshot).
func (hw *HWState) Layout() *Layout {
	if hw == nil || hw.layout == nil {
		return &Layout{}
	}
	return hw.layout
}

// Vals returns the state vector itself.
func (hw *HWState) Vals() []uint64 {
	if hw == nil {
		return nil
	}
	return hw.vals
}

// Clone copies the state; the copy shares the layout.
func (hw *HWState) Clone() *HWState { return &HWState{hw.Layout(), slices.Clone(hw.Vals())} }

// buildLayout computes the design's layout and the vector position of
// every register, memory and input.
func (s *Simulator) buildLayout() {
	d := s.design
	byName := func(a, b *rtl.Signal) int { return strings.Compare(a.Name, b.Name) }
	regs, inputs := d.Regs(), slices.Clone(d.Inputs)
	s.mems = slices.Clone(d.Memories)
	slices.SortFunc(regs, byName)
	slices.SortFunc(inputs, byName)
	slices.SortFunc(s.mems, func(a, b *rtl.Memory) int { return strings.Compare(a.Name, b.Name) })
	s.pos, s.memPos = make([]int, len(d.Signals)), make([]int, len(d.Memories))
	n := 0
	place := func(sigs []*rtl.Signal) []string {
		names := make([]string, len(sigs))
		for i, sig := range sigs {
			names[i], s.pos[sig.ID] = sig.Name, n
			n++
		}
		return names
	}
	l := &Layout{Regs: place(regs), Mems: make([]string, len(s.mems)), Depths: make([]int, len(s.mems))}
	for i, m := range s.mems {
		l.Mems[i], l.Depths[i], s.memPos[m.ID] = m.Name, int(m.Depth), n
		n += int(m.Depth)
	}
	l.Inputs = place(inputs)
	s.layout, s.sigs = l, append(regs, inputs...)
}

// Layout returns the layout of the design's states.
func (s *Simulator) Layout() *Layout { return s.layout }

// Snapshot captures the full hardware state.
func (s *Simulator) Snapshot() *HWState {
	hw := &HWState{}
	s.SnapshotTo(hw)
	return hw
}

// SnapshotTo captures the full hardware state into hw, allocating
// only its vector: a caller that holds states by value pays nothing
// for the state itself.
func (s *Simulator) SnapshotTo(hw *HWState) {
	*hw = HWState{s.layout, make([]uint64, s.layout.Len())}
	for _, sig := range s.sigs {
		hw.vals[s.pos[sig.ID]] = s.state.Vals[sig.ID]
	}
	for _, m := range s.mems {
		copy(hw.vals[s.memPos[m.ID]:], s.state.Mems[m.ID])
	}
}

// Restore overwrites the hardware state from a snapshot and re-settles
// combinational logic. A state of another layout is refused before
// any bit is written.
func (s *Simulator) Restore(hw *HWState) error {
	if err := s.layout.Check(hw.Layout()); err != nil {
		return err
	}
	for _, sig := range s.sigs {
		s.write(sig, hw.vals[s.pos[sig.ID]])
	}
	for _, m := range s.mems {
		mask, dst := widthMask(m.Width), s.state.Mems[m.ID]
		for i, w := range hw.vals[s.memPos[m.ID]:][:m.Depth] {
			if w &= mask; dst[i] != w {
				s.markMem(m.ID)
				dst[i] = w
				if s.eng != nil {
					s.eng.MarkMemory(m.ID)
				}
			}
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
	if err := s.layout.Check(hw.Layout()); err != nil {
		return 0, err
	}
	var bits uint
	for _, id := range s.dirtySigs.ids {
		sig := s.design.Signals[id]
		s.state.Vals[id] = hw.vals[s.pos[id]] & widthMask(sig.Width)
		// Written blind (no old-value compare), so conservatively
		// wake everything sensitive to the signal.
		if s.eng != nil {
			s.eng.MarkSignal(id)
		}
		bits += sig.Width
	}
	for _, id := range s.dirtyMems.ids {
		m := s.design.Memories[id]
		for i, w := range hw.vals[s.memPos[id]:][:m.Depth] {
			s.state.Mems[id][i] = w & widthMask(m.Width)
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
