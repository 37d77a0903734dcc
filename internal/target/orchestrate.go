package target

import (
	"fmt"
	"slices"

	"hardsnap/internal/sim"
)

// Transfer moves the complete hardware state from one target to the
// other (paper E7): a Save at the source's snapshot cost, a remap to
// the destination's builds, and a Restore at the destination's cost.
// Both targets must host the same peripheral set.
func Transfer(from, to *Target) error {
	st, err := from.Save()
	if err != nil {
		return fmt.Errorf("target: transfer save from %s: %w", from.name, err)
	}
	for i := range st {
		if i < len(to.byName) && to.byName[i].cfg.Name == st[i].Name {
			st[i].HW = remap(&st[i].HW, to.byName[i].sim.Layout().Inputs)
		}
	}
	if err := to.Restore(st); err != nil {
		return fmt.Errorf("target: transfer restore to %s: %w", to.name, err)
	}
	return nil
}

// remap re-lays hw out for a build of its design whose input pins are
// inputs, carrying each pin's level by name: a scan-instrumented build
// differs from a plain one by scan_enable and scan_in. A pin hw lacks
// is driven low, and one inputs lacks is dropped. Registers and memory
// words keep their positions; the destination's Restore checks them.
func remap(hw *sim.HWState, inputs []string) sim.HWState {
	from := hw.Layout()
	out := sim.NewHWState(&sim.Layout{Regs: from.Regs, Mems: from.Mems, Depths: from.Depths, Inputs: inputs}, nil)
	src, dst := hw.Vals(), out.Vals()
	n := copy(dst, src[:len(src)-len(from.Inputs)])
	for i, name := range inputs {
		if j, ok := slices.BinarySearch(from.Inputs, name); ok {
			dst[n+i] = src[n+j]
		}
	}
	return *out
}
