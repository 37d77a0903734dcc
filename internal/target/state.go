package target

import "hardsnap/internal/sim"

// State is a portable whole-target hardware snapshot: one complete
// peripheral state per instance name. It transfers between any two
// targets hosting the same peripheral set (simulator <-> FPGA): the
// paper's E7 multi-target mechanism.
// Its byte form (persistence, wire, content address) belongs to
// internal/snapshot.
type State map[string]*sim.HWState
