package target

import "hardsnap/internal/sim"

// State is a whole-target hardware snapshot: one peripheral state per
// instance name, each in the layout of that peripheral's built design.
// A target restores only a State holding exactly its peripherals;
// Transfer carries one between builds (simulator <-> scan FPGA), the
// paper's E7. Its byte form belongs to internal/snapshot.
type State map[string]*sim.HWState
