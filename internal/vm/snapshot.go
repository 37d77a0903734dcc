package vm

import "fmt"

// Snapshot is a complete copy of the CPU's architectural and memory
// state, used by the fuzzer's snapshot-based reset strategy.
type Snapshot struct {
	Regs      [16]uint32
	PC        uint32
	EPC       uint32
	InHandler bool
	Pending   uint32
	Cycles    uint64
	// Mem is immutable once captured: a CPU anchored on this snapshot
	// restores from it page by page and relies on it not changing.
	Mem     []byte
	Console []byte
}

// RAM dirtiness is tracked per page so that returning to a snapshot
// costs what was stored to since, not the RAM size. The page size is a
// constant, not a Config field: no caller has a reason to pick another.
// At 4 KiB the default RAM's bitmap is 32 bytes and a one-page restore
// a ~70 ns copy, against ~50 µs for the whole 1 MiB.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// setAnchor records that RAM now equals s.Mem everywhere.
func (c *CPU) setAnchor(s *Snapshot) {
	c.anchor = s
	if c.dirty == nil {
		pages := (len(c.Mem) + pageSize - 1) >> pageShift
		c.dirty = make([]uint64, (pages+63)/64)
		c.touched = make([]uint32, 0, pages)
	}
	clear(c.dirty)
	c.touched = c.touched[:0]
}

// markDirty records a store to RAM bytes [off, off+size). touched has
// room for every page, so the append never allocates.
func (c *CPU) markDirty(off, size uint32) {
	if c.anchor == nil || size == 0 {
		return
	}
	for p := off >> pageShift; p <= (off+size-1)>>pageShift; p++ {
		if bit := uint64(1) << (p & 63); c.dirty[p>>6]&bit == 0 {
			c.dirty[p>>6] |= bit
			c.touched = append(c.touched, p)
		}
	}
}

// Snapshot captures the CPU state. The stop state is not captured: a
// snapshot is only meaningful for a running machine. A CPU with no
// anchor is anchored on the new snapshot; one that has an anchor keeps
// it, so a snapshot taken mid-campaign does not slow the next return
// to the campaign's own.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		Regs:      c.Regs,
		PC:        c.PC,
		EPC:       c.EPC,
		InHandler: c.InHandler,
		Pending:   c.pending,
		Cycles:    c.Cycles,
		Mem:       make([]byte, len(c.Mem)),
		Console:   append([]byte(nil), c.Console...),
	}
	copy(s.Mem, c.Mem)
	if c.anchor == nil {
		c.setAnchor(s)
	}
	return s
}

// RestoreSnapshot overwrites the CPU state from a snapshot and clears
// any stop condition. When s is the anchor only the pages stored to
// since are copied back; any other snapshot is a full copy and becomes
// the anchor. s must come from a CPU with the same RAM size.
func (c *CPU) RestoreSnapshot(s *Snapshot) {
	if len(s.Mem) != len(c.Mem) {
		panic(fmt.Sprintf("vm: RestoreSnapshot of a %d-byte RAM image into a %d-byte RAM", len(s.Mem), len(c.Mem)))
	}
	c.Regs = s.Regs
	c.PC = s.PC
	c.EPC = s.EPC
	c.InHandler = s.InHandler
	c.pending = s.Pending
	c.Cycles = s.Cycles
	if s == c.anchor {
		for _, p := range c.touched {
			lo := int(p) << pageShift
			hi := min(lo+pageSize, len(c.Mem)) // the last page may be short
			copy(c.Mem[lo:hi], s.Mem[lo:hi])
			c.dirty[p>>6] &^= 1 << (p & 63)
		}
		c.touched = c.touched[:0]
	} else {
		copy(c.Mem, s.Mem)
		c.setAnchor(s)
	}
	c.Console = append(c.Console[:0], s.Console...)
	c.Stop = StopNone
	c.Fault = nil
}
