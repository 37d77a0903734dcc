// Package vm implements the concrete HS32 virtual machine: a
// cycle-counted interpreter with a flat RAM, a forwarded memory-mapped
// I/O window and single-level precise interrupts. It is the concrete
// twin of the symbolic interpreter in internal/symexec and the
// execution vehicle for the fuzzing engine.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"hardsnap/internal/asm"
	"hardsnap/internal/isa"
)

// MMIO is the bus interface the CPU forwards device accesses to.
// Sizes are 1, 2 or 4 bytes; addresses are absolute.
type MMIO interface {
	ReadMMIO(addr uint32, size int) (uint32, error)
	WriteMMIO(addr uint32, size int, val uint32) error
}

// StopReason explains why execution stopped.
type StopReason int

// Stop reasons.
const (
	StopNone       StopReason = iota // still running
	StopHalt                         // ecall halt
	StopAbort                        // ecall abort
	StopAssertFail                   // ecall assert with zero argument
	StopFault                        // memory or decode fault
	StopBudget                       // instruction budget exhausted
)

// String returns a human-readable stop reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "running"
	case StopHalt:
		return "halt"
	case StopAbort:
		return "abort"
	case StopAssertFail:
		return "assertion failure"
	case StopFault:
		return "fault"
	case StopBudget:
		return "budget exhausted"
	}
	return "unknown"
}

// FaultError describes a memory or decode fault.
type FaultError struct {
	PC   uint32
	Addr uint32
	Msg  string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("vm: fault at pc=%#08x addr=%#08x: %s", e.PC, e.Addr, e.Msg)
}

// Config describes the machine layout.
type Config struct {
	RAMBase  uint32 // default 0
	RAMSize  uint32 // default 1 MiB
	MMIOBase uint32 // default 0x4000_0000
	MMIOSize uint32 // default 64 KiB
	// VectorBase is the interrupt vector table: the handler for IRQ n
	// is the address stored at VectorBase + 4n. Default 0x0000_0FC0.
	VectorBase uint32
}

// InRAM reports whether the size bytes at addr lie in RAM. The window
// checks add in uint64: in uint32 an access that runs past the top of
// the address space wraps to a small offset and passes.
func (c Config) InRAM(addr, size uint32) bool {
	return addr >= c.RAMBase && uint64(addr-c.RAMBase)+uint64(size) <= uint64(c.RAMSize)
}

// InMMIO reports whether the size bytes at addr lie in the MMIO window.
func (c Config) InMMIO(addr, size uint32) bool {
	return addr >= c.MMIOBase && uint64(addr-c.MMIOBase)+uint64(size) <= uint64(c.MMIOSize)
}

// NumIRQs is the number of interrupt lines.
const NumIRQs = 8

// NextIRQ returns the interrupt line a machine with the pending
// bitmask takes next, the lowest pending one, and the address of its
// vector-table slot. ok is false when no line is pending.
func (c Config) NextIRQ(pending uint32) (line uint, vector uint32, ok bool) {
	line = uint(bits.TrailingZeros32(pending))
	return line, c.VectorBase + uint32(4*line), line < NumIRQs
}

// MaxInput is the largest buffer a make-symbolic call may name.
const MaxInput = 4096

// InputFits reports whether a make-symbolic call may fill the length
// bytes at addr: none, or at most MaxInput bytes lying wholly in RAM.
// Both interpreters fault on any other buffer before a byte moves.
func (c Config) InputFits(addr, length uint32) bool {
	return length == 0 || length <= MaxInput && c.InRAM(addr, length)
}

// WithDefaults returns the layout with every zero field replaced by
// its default.
func (c Config) WithDefaults() Config {
	if c.RAMSize == 0 {
		c.RAMSize = 1 << 20
	}
	if c.MMIOBase == 0 {
		c.MMIOBase = 0x40000000
	}
	if c.MMIOSize == 0 {
		c.MMIOSize = 1 << 16
	}
	if c.VectorBase == 0 {
		c.VectorBase = 0x00000FC0
	}
	return c
}

// CPU is a concrete HS32 machine instance.
type CPU struct {
	Regs [isa.NumRegs]uint32
	PC   uint32

	// EPC holds the return address while an interrupt is serviced.
	EPC       uint32
	InHandler bool

	// Mem is RAM. Read it freely; store only through WriteMem, Load and
	// Reset, which keep the dirty-page tracking below in step.
	Mem  []byte
	cfg  Config
	mmio MMIO

	// anchor is the snapshot RAM equals outside the touched pages (nil:
	// no tracking, RestoreSnapshot copies everything). dirty holds one
	// bit per page stored to since; touched lists those pages.
	anchor  *Snapshot
	dirty   []uint64
	touched []uint32

	// code is the last loaded program's code decoded once; fetch
	// serves an entry only while RAM holds the word it was decoded
	// from. loaded is the program it was built from.
	code   isa.Table
	loaded *asm.Program

	pending uint32 // bitmask of pending IRQ lines

	// Cycles counts retired instructions.
	Cycles uint64

	// Stop records why execution ended; StopNone while running.
	Stop StopReason
	// Fault carries detail when Stop == StopFault.
	Fault error

	// Console accumulates EcallPutChar/EcallPutInt output.
	Console []byte

	// OnEcall, when non-nil, intercepts environment calls before the
	// default handling; returning true consumes the call.
	OnEcall func(cpu *CPU, service int32) bool
}

// New creates a CPU with the given layout and MMIO handler (which may
// be nil if the firmware never touches the MMIO window).
func New(cfg Config, mmio MMIO) *CPU {
	cfg = cfg.WithDefaults()
	return &CPU{
		Mem:  make([]byte, cfg.RAMSize),
		cfg:  cfg,
		mmio: mmio,
	}
}

// Config returns the machine layout.
func (c *CPU) Config() Config { return c.cfg }

// SetMMIO swaps the bus the CPU forwards device accesses to. The
// hybrid fuzzer uses it to interpose a recording shim around the
// router for one execution (MMIO trace capture for concolic replay)
// and to put the router back afterwards.
func (c *CPU) SetMMIO(m MMIO) { c.mmio = m }

// Load copies an assembled program into RAM and points PC at its entry.
// It decodes the program's code for fetch, unless p is the program the
// CPU already holds a table for: then it keeps that table and allocates
// nothing (the fuzzer's reboot reset reloads the program every exec).
// A table kept across a change to p.Code is still correct, since its
// entries are checked against RAM at every fetch.
func (c *CPU) Load(p *asm.Program) error {
	off := int64(p.Base) - int64(c.cfg.RAMBase)
	if off < 0 || off+int64(len(p.Code)) > int64(len(c.Mem)) {
		return errors.New("vm: program does not fit in RAM")
	}
	if c.loaded != p {
		c.code, c.loaded = *isa.DecodeProgram(p.Base, p.Code), p
	}
	copy(c.Mem[off:], p.Code)
	c.markDirty(uint32(off), uint32(len(p.Code)))
	c.PC = p.Entry
	return nil
}

// Reset returns the CPU to its power-on state, clearing RAM,
// registers and stop state. The MMIO device is not touched.
func (c *CPU) Reset() {
	clear(c.Mem)
	c.anchor = nil
	c.Regs = [isa.NumRegs]uint32{}
	c.PC = 0
	c.EPC = 0
	c.InHandler = false
	c.pending = 0
	c.Cycles = 0
	c.Stop = StopNone
	c.Fault = nil
	c.Console = nil
}

// RaiseIRQ marks interrupt line n pending.
func (c *CPU) RaiseIRQ(n int) {
	if n >= 0 && n < NumIRQs {
		c.pending |= 1 << uint(n)
	}
}

// PendingIRQs returns the pending bitmask (for snapshotting).
func (c *CPU) PendingIRQs() uint32 { return c.pending }

// ReadMem performs a data load of size bytes (1, 2 or 4).
func (c *CPU) ReadMem(addr uint32, size int) (uint32, error) {
	if c.cfg.InRAM(addr, uint32(size)) {
		off := addr - c.cfg.RAMBase
		var v uint32
		for i := 0; i < size; i++ {
			v |= uint32(c.Mem[off+uint32(i)]) << (8 * uint(i))
		}
		return v, nil
	}
	if c.cfg.InMMIO(addr, uint32(size)) {
		if c.mmio == nil {
			return 0, &FaultError{PC: c.PC, Addr: addr, Msg: "MMIO access with no device attached"}
		}
		return c.mmio.ReadMMIO(addr, size)
	}
	return 0, &FaultError{PC: c.PC, Addr: addr, Msg: "load outside mapped memory"}
}

// WriteMem performs a data store of size bytes (1, 2 or 4).
func (c *CPU) WriteMem(addr uint32, size int, val uint32) error {
	if c.cfg.InRAM(addr, uint32(size)) {
		off := addr - c.cfg.RAMBase
		for i := 0; i < size; i++ {
			c.Mem[off+uint32(i)] = byte(val >> (8 * uint(i)))
		}
		c.markDirty(off, uint32(size))
		return nil
	}
	if c.cfg.InMMIO(addr, uint32(size)) {
		if c.mmio == nil {
			return &FaultError{PC: c.PC, Addr: addr, Msg: "MMIO access with no device attached"}
		}
		return c.mmio.WriteMMIO(addr, size, val)
	}
	return &FaultError{PC: c.PC, Addr: addr, Msg: "store outside mapped memory"}
}

// FillInput serves a make-symbolic ecall concretely: it stores input,
// cut or zero-padded to the requested length, into the buffer the call
// names (r1 = address, r2 = length). A buffer InputFits refuses faults
// the CPU and stores nothing.
func (c *CPU) FillInput(input []byte) {
	addr, length := c.Regs[1], c.Regs[2]
	if length == 0 {
		return
	}
	if !c.cfg.InputFits(addr, length) {
		c.Stop = StopFault
		c.Fault = &FaultError{PC: c.PC, Addr: addr, Msg: fmt.Sprintf("make_symbolic buffer of %d bytes outside RAM or over %d", length, MaxInput)}
		return
	}
	off := addr - c.cfg.RAMBase
	buf := c.Mem[off : off+length]
	clear(buf[copy(buf, input):])
	c.markDirty(off, length)
}

// fetch returns the instruction at PC: the decoded table's entry when
// it was decoded from the word RAM holds there, else that word decoded
// now. The compare is the table's only upkeep: a store into code,
// FillInput, a restore and Reset change RAM, and an entry whose word
// RAM no longer holds simply is not served.
func (c *CPU) fetch() (isa.Inst, error) {
	if !c.cfg.InRAM(c.PC, 4) {
		return isa.Inst{}, &FaultError{PC: c.PC, Addr: c.PC, Msg: "instruction fetch outside RAM"}
	}
	word := binary.LittleEndian.Uint32(c.Mem[c.PC-c.cfg.RAMBase:])
	if in, ok := c.code.Fetch(c.PC, word); ok {
		return in, nil
	}
	in, err := isa.Decode(word)
	if err != nil {
		return isa.Inst{}, &FaultError{PC: c.PC, Addr: c.PC, Msg: err.Error()}
	}
	return in, nil
}

func (c *CPU) setReg(r uint8, v uint32) {
	if r != isa.RegZero {
		c.Regs[r] = v
	}
}

// checkIRQ dispatches a pending interrupt if the CPU can take one.
// Interrupts are only taken at instruction boundaries and are atomic:
// a handler runs to completion (MRET) before another is dispatched,
// mirroring INCEPTION's interrupt-atomicity rule.
func (c *CPU) checkIRQ() error {
	if c.InHandler || c.pending == 0 {
		return nil
	}
	n, vector, ok := c.cfg.NextIRQ(c.pending)
	if !ok {
		return nil
	}
	c.pending &^= 1 << n
	handler, err := c.ReadMem(vector, 4)
	if err != nil {
		return err
	}
	if handler == 0 {
		// Unpopulated vector: drop the interrupt.
		return nil
	}
	c.EPC = c.PC
	c.InHandler = true
	c.PC = handler
	return nil
}

// Step executes one instruction (servicing at most one pending
// interrupt first). It returns false when execution has stopped.
func (c *CPU) Step() bool {
	if c.Stop != StopNone {
		return false
	}
	if err := c.checkIRQ(); err != nil {
		c.Stop = StopFault
		c.Fault = err
		return false
	}
	in, err := c.fetch()
	if err != nil {
		c.Stop = StopFault
		c.Fault = err
		return false
	}
	c.Cycles++
	next := c.PC + 4
	r := &c.Regs

	switch in.Op {
	case isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL,
		isa.OpSRA, isa.OpMUL, isa.OpDIVU, isa.OpREMU, isa.OpSLT, isa.OpSLTU:
		c.setReg(in.Rd, isa.ALU(in.Op, r[in.Rs1], r[in.Rs2]))

	case isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSLLI, isa.OpSRLI,
		isa.OpSRAI, isa.OpSLTI, isa.OpSLTIU:
		c.setReg(in.Rd, isa.ALU(in.Op, r[in.Rs1], uint32(in.Imm)))

	case isa.OpLUI:
		c.setReg(in.Rd, isa.LUIValue(in.Imm))

	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		v, err := c.ReadMem(r[in.Rs1]+uint32(in.Imm), isa.AccessSize(in.Op))
		if err != nil {
			c.Stop = StopFault
			c.Fault = err
			return false
		}
		c.setReg(in.Rd, isa.ExtendLoad(in.Op, v))

	case isa.OpSW, isa.OpSH, isa.OpSB:
		if err := c.WriteMem(r[in.Rs1]+uint32(in.Imm), isa.AccessSize(in.Op), r[in.Rs2]); err != nil {
			c.Stop = StopFault
			c.Fault = err
			return false
		}

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		if isa.Taken(in.Op, r[in.Rs1], r[in.Rs2]) {
			next = c.PC + uint32(in.Imm)
		}

	case isa.OpJAL:
		c.setReg(in.Rd, c.PC+4)
		next = c.PC + uint32(in.Imm)
	case isa.OpJALR:
		c.setReg(in.Rd, c.PC+4)
		next = (r[in.Rs1] + uint32(in.Imm)) &^ 3

	case isa.OpECALL:
		if c.OnEcall != nil && c.OnEcall(c, in.Imm) {
			break
		}
		switch in.Imm {
		case isa.EcallHalt:
			c.Stop = StopHalt
		case isa.EcallAbort:
			c.Stop = StopAbort
		case isa.EcallAssert:
			if r[1] == 0 {
				c.Stop = StopAssertFail
			}
		case isa.EcallPutChar:
			c.Console = append(c.Console, byte(r[1]))
		case isa.EcallPutInt:
			c.Console = append(c.Console, []byte(fmt.Sprintf("%d", r[1]))...)
		case isa.EcallMakeSymbolic, isa.EcallAssume, isa.EcallSnapshotHint:
			// Concrete execution treats symbolic intrinsics as no-ops;
			// the fuzzer overrides OnEcall to feed inputs.
		default:
			c.Stop = StopFault
			c.Fault = &FaultError{PC: c.PC, Addr: c.PC, Msg: fmt.Sprintf("unknown ecall %d", in.Imm)}
		}
		if c.Stop != StopNone {
			c.PC = next
			return false
		}

	case isa.OpMRET:
		if c.InHandler {
			c.InHandler = false
			next = c.EPC
		}
	}

	c.PC = next
	return true
}
