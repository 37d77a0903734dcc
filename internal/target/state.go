package target

import (
	"fmt"
	"sort"

	"hardsnap/internal/sim"
)

// State is a whole-target hardware snapshot: one entry per peripheral
// instance, in ascending name order (the order the byte form in
// internal/snapshot writes), each state in the layout of that
// peripheral's built design. A target restores only a State holding
// exactly its peripherals in that order; Transfer carries one between
// builds (simulator <-> scan FPGA), the paper's E7. Its byte form
// belongs to internal/snapshot.
type State []PeriphState

// PeriphState is one peripheral's entry in a State. HW is held by
// value: a save allocates the State and each peripheral's vector,
// nothing else. A zero HW is the empty state.
type PeriphState struct {
	Name string
	HW   sim.HWState
}

// CheckOrder refuses a state whose names are not strictly ascending:
// one out of name order or naming a peripheral twice.
func (s State) CheckOrder() error {
	for i := 1; i < len(s); i++ {
		if s[i].Name <= s[i-1].Name {
			return fmt.Errorf("peripheral %q after %q: state not in ascending name order", s[i].Name, s[i-1].Name)
		}
	}
	return nil
}

// Get returns the named peripheral's state, or nil. s must be in
// name order.
func (s State) Get(name string) *sim.HWState {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return &s[i].HW
	}
	return nil
}
