package sim

import "fmt"

// Test-only access to the simulator's full controllability: direct
// writes to any signal or memory element, and the dirty footprint the
// delta-restore fuzzers compare against RestoreDirty.

// DirtyBits returns the number of state bits touched since the last
// ClearDirty (memories count whole-array when any element changed).
func (s *Simulator) DirtyBits() uint {
	var n uint
	for _, id := range s.dirtySigs.ids {
		n += s.design.Signals[id].Width
	}
	for _, id := range s.dirtyMems.ids {
		m := s.design.Memories[id]
		n += m.Depth * m.Width
	}
	return n
}

// Poke writes any signal by hierarchical name (full controllability).
// Poking a non-register is transient: the next comb settle overwrites
// it. The value is truncated to the signal's width (see SetInputID).
func (s *Simulator) Poke(name string, v uint64) error {
	sig, ok := s.design.SignalByName(name)
	if !ok {
		return fmt.Errorf("sim: no signal named %q", name)
	}
	s.write(sig, v)
	return nil
}

// PeekMem reads one memory element.
func (s *Simulator) PeekMem(name string, idx uint) (uint64, error) {
	m, ok := s.design.MemoryByName(name)
	if !ok {
		return 0, fmt.Errorf("sim: no memory named %q", name)
	}
	if idx >= m.Depth {
		return 0, fmt.Errorf("sim: index %d out of range of %s", idx, name)
	}
	return s.state.Mems[m.ID][idx], nil
}

// PokeMem writes one memory element.
func (s *Simulator) PokeMem(name string, idx uint, v uint64) error {
	m, ok := s.design.MemoryByName(name)
	if !ok {
		return fmt.Errorf("sim: no memory named %q", name)
	}
	if idx >= m.Depth {
		return fmt.Errorf("sim: index %d out of range of %s", idx, name)
	}
	v &= widthMask(m.Width)
	if s.state.Mems[m.ID][idx] != v {
		s.markMem(m.ID)
		s.state.Mems[m.ID][idx] = v
		if s.eng != nil {
			s.eng.MarkMemory(m.ID)
		}
	}
	return nil
}
