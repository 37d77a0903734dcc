// Package isa defines HS32, the 32-bit RISC instruction set executed by
// HardSnap's virtual machine. HS32 stands in for the ARM firmware of the
// original INCEPTION-based prototype: it is a classic load/store ISA
// with memory-mapped I/O, precise interrupts and an environment-call
// instruction used by software testbenches (make-symbolic, assert,
// print, halt).
//
// Encoding (fixed 32-bit words, little-endian in memory):
//
//	[31:26] opcode
//	[25:22] rd
//	[21:18] rs1
//	[17:14] rs2
//	[13:0]  imm14 (sign-extended) — I-type, loads/stores, branches
//	[21:0]  imm22 (sign-extended) — J-type (JAL)
//
// Register r0 is hardwired to zero; writes to it are discarded.
package isa

import (
	"encoding/binary"
	"fmt"
)

// NumRegs is the number of architectural registers.
const NumRegs = 16

// Conventional register roles used by the assembler and examples.
const (
	RegZero = 0  // always zero
	RegSP   = 14 // stack pointer
	RegRA   = 15 // return address
)

// Opcode identifies an HS32 instruction.
type Opcode uint8

// Instruction opcodes.
const (
	// R-type ALU: rd = rs1 op rs2.
	OpADD Opcode = iota + 1
	OpSUB
	OpAND
	OpOR
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpMUL
	OpDIVU
	OpREMU
	OpSLT  // rd = (rs1 <s rs2)
	OpSLTU // rd = (rs1 <u rs2)

	// I-type ALU: rd = rs1 op simm14.
	OpADDI
	OpANDI
	OpORI
	OpXORI
	OpSLLI
	OpSRLI
	OpSRAI
	OpSLTI
	OpSLTIU

	// LUI: rd = imm14 << 18 | (loads the *upper* bits). See EncodeLUI.
	OpLUI

	// Loads: rd = mem[rs1 + simm14].
	OpLW
	OpLH
	OpLHU
	OpLB
	OpLBU

	// Stores: mem[rs1 + simm14] = rs2.
	OpSW
	OpSH
	OpSB

	// Branches: if (rs1 cmp rs2) pc += simm14 (byte offset).
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU

	// Jumps.
	OpJAL  // rd = pc+4; pc += simm22
	OpJALR // rd = pc+4; pc = (rs1 + simm14) &^ 3

	// System.
	OpECALL // environment call, imm14 selects the service
	OpMRET  // return from interrupt handler

	opMax
)

var opcodeNames = [...]string{
	OpADD: "add", OpSUB: "sub", OpAND: "and", OpOR: "or", OpXOR: "xor",
	OpSLL: "sll", OpSRL: "srl", OpSRA: "sra", OpMUL: "mul",
	OpDIVU: "divu", OpREMU: "remu", OpSLT: "slt", OpSLTU: "sltu",
	OpADDI: "addi", OpANDI: "andi", OpORI: "ori", OpXORI: "xori",
	OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpSLTI: "slti", OpSLTIU: "sltiu",
	OpLUI: "lui",
	OpLW:  "lw", OpLH: "lh", OpLHU: "lhu", OpLB: "lb", OpLBU: "lbu",
	OpSW: "sw", OpSH: "sh", OpSB: "sb",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLTU: "bltu", OpBGEU: "bgeu",
	OpJAL: "jal", OpJALR: "jalr",
	OpECALL: "ecall", OpMRET: "mret",
}

// String returns the assembler mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool {
	return o >= OpADD && o < opMax
}

// Environment call service numbers (the imm14 field of ECALL).
const (
	EcallHalt         = 0 // terminate successfully
	EcallMakeSymbolic = 1 // r1 = addr, r2 = len, r3 = name id
	EcallAssert       = 2 // fail path if r1 == 0
	EcallPutChar      = 3 // write low byte of r1 to the console
	EcallAbort        = 4 // terminate with failure
	EcallAssume       = 5 // constrain r1 != 0 (silently kill path otherwise)
	EcallSnapshotHint = 6 // advisory marker: good snapshot point
	EcallPutInt       = 7 // write decimal r1 to the console
)

// Inst is a decoded instruction.
type Inst struct {
	Op  Opcode
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32 // sign-extended immediate (14- or 22-bit)
}

const (
	imm14Mask = (1 << 14) - 1
	imm22Mask = (1 << 22) - 1
)

func signExt(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Encode packs the instruction into its 32-bit representation.
func Encode(in Inst) (uint32, error) {
	if !in.Op.Valid() {
		return 0, fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return 0, fmt.Errorf("isa: register out of range in %v", in)
	}
	w := uint32(in.Op) << 26
	w |= uint32(in.Rd&0xF) << 22
	w |= uint32(in.Rs1&0xF) << 18
	w |= uint32(in.Rs2&0xF) << 14
	if in.Op == OpJAL {
		if in.Imm < -(1<<21) || in.Imm >= 1<<21 {
			return 0, fmt.Errorf("isa: JAL offset %d out of 22-bit range", in.Imm)
		}
		// imm22 overlaps rs1/rs2 fields.
		w = uint32(in.Op)<<26 | uint32(in.Rd&0xF)<<22 | uint32(in.Imm)&imm22Mask
		return w, nil
	}
	if in.Op == OpLUI {
		// LUI's immediate is a raw 14-bit field (bits [31:18] of the
		// result); accept it unsigned as well as sign-extended.
		if in.Imm < -(1<<13) || in.Imm >= 1<<14 {
			return 0, fmt.Errorf("isa: LUI immediate %d out of 14-bit range", in.Imm)
		}
		w |= uint32(in.Imm) & imm14Mask
		return w, nil
	}
	if in.Imm < -(1<<13) || in.Imm >= 1<<13 {
		return 0, fmt.Errorf("isa: immediate %d out of 14-bit range for %v", in.Imm, in.Op)
	}
	w |= uint32(in.Imm) & imm14Mask
	return w, nil
}

// Decode unpacks a 32-bit instruction word.
func Decode(w uint32) (Inst, error) {
	op := Opcode(w >> 26)
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: illegal instruction %#08x", w)
	}
	in := Inst{
		Op:  op,
		Rd:  uint8(w >> 22 & 0xF),
		Rs1: uint8(w >> 18 & 0xF),
		Rs2: uint8(w >> 14 & 0xF),
	}
	if op == OpJAL {
		in.Rs1, in.Rs2 = 0, 0
		in.Imm = signExt(w&imm22Mask, 22)
	} else {
		in.Imm = signExt(w&imm14Mask, 14)
	}
	return in, nil
}

// Decoded is one entry of a Table: a word and the instruction it
// decodes to (the zero Inst, whose Op is invalid, if it is illegal).
type Decoded struct {
	Word uint32
	Inst Inst
}

// Table is a code range decoded once: Entries[i] is the word at
// Base+4i. An entry serves a fetch only while memory still holds the
// word it was decoded from, so a table is never invalidated: a store
// into code, a restored snapshot or a reloaded image changes what the
// entry is compared with, not the entry. It is read-only once built
// and may be shared.
type Table struct {
	Base    uint32
	Entries []Decoded
}

// DecodeProgram decodes every whole little-endian word of code, which
// starts at address base.
func DecodeProgram(base uint32, code []byte) *Table {
	t := &Table{Base: base, Entries: make([]Decoded, len(code)/4)}
	for i := range t.Entries {
		w := binary.LittleEndian.Uint32(code[4*i:])
		in, _ := Decode(w)
		t.Entries[i] = Decoded{Word: w, Inst: in}
	}
	return t
}

// Fetch returns the instruction at pc, given the word memory holds
// there. ok is false, and the caller decodes word itself, unless pc
// starts a word of the table, the entry was decoded from word, and
// word is a legal instruction.
func (t *Table) Fetch(pc, word uint32) (in Inst, ok bool) {
	off := pc - t.Base // below Base wraps past every entry
	if i := off >> 2; off&3 == 0 && i < uint32(len(t.Entries)) {
		if e := &t.Entries[i]; e.Word == word && e.Inst.Op.Valid() {
			return e.Inst, true
		}
	}
	return Inst{}, false
}

// Contains reports whether addr lies in a word of the table.
func (t *Table) Contains(addr uint32) bool {
	return uint64(addr-t.Base) < 4*uint64(len(t.Entries))
}

// String disassembles the instruction.
func (in Inst) String() string {
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA,
		OpMUL, OpDIVU, OpREMU, OpSLT, OpSLTU:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpSLTI, OpSLTIU:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpLUI:
		return fmt.Sprintf("lui r%d, %#x", in.Rd, in.Imm)
	case OpLW, OpLH, OpLHU, OpLB, OpLBU:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rd, in.Imm, in.Rs1)
	case OpSW, OpSH, OpSB:
		return fmt.Sprintf("%s r%d, %d(r%d)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case OpJAL:
		return fmt.Sprintf("jal r%d, %d", in.Rd, in.Imm)
	case OpJALR:
		return fmt.Sprintf("jalr r%d, r%d, %d", in.Rd, in.Rs1, in.Imm)
	case OpECALL:
		return fmt.Sprintf("ecall %d", in.Imm)
	case OpMRET:
		return "mret"
	}
	return fmt.Sprintf("%s ?", in.Op)
}

// LUIShift is the amount LUI shifts its immediate by; together with the
// 14-bit immediate this covers bits [31:18].
const LUIShift = 18

// LUIValue computes the register value produced by LUI with the given
// raw immediate field.
func LUIValue(imm int32) uint32 {
	return uint32(imm) << LUIShift
}

// ExpandLI returns the shortest instruction sequence loading the
// 32-bit constant v into rd, using only rd as scratch:
//
//   - one ADDI for small signed constants,
//   - one LUI when the low 18 bits are zero,
//   - LUI+ORI when the low 18 bits fit ORI's positive range,
//   - otherwise a 5-instruction shift-accumulate sequence
//     (ADDI, SLLI, ORI, SLLI, ORI) that covers any 32-bit value.
func ExpandLI(rd uint8, v uint32) []Inst {
	sv := int32(v)
	if sv >= -(1<<13) && sv < 1<<13 {
		return []Inst{{Op: OpADDI, Rd: rd, Rs1: RegZero, Imm: sv}}
	}
	hi := int32(v >> LUIShift)
	low18 := v & (1<<LUIShift - 1)
	if low18 == 0 {
		return []Inst{{Op: OpLUI, Rd: rd, Imm: hi}}
	}
	if low18 < 1<<13 {
		return []Inst{
			{Op: OpLUI, Rd: rd, Imm: hi},
			{Op: OpORI, Rd: rd, Rs1: rd, Imm: int32(low18)},
		}
	}
	return []Inst{
		{Op: OpADDI, Rd: rd, Rs1: RegZero, Imm: int32(v >> 26 & 0x3F)},
		{Op: OpSLLI, Rd: rd, Rs1: rd, Imm: 13},
		{Op: OpORI, Rd: rd, Rs1: rd, Imm: int32(v >> 13 & 0x1FFF)},
		{Op: OpSLLI, Rd: rd, Rs1: rd, Imm: 13},
		{Op: OpORI, Rd: rd, Rs1: rd, Imm: int32(v & 0x1FFF)},
	}
}

// Concrete semantics: the one definition of what an HS32 instruction
// computes on machine words. The vm executes through these functions;
// symexec's terms must agree with them (expr folds and evaluates with
// the same rules).

// ALU returns rd for an R-type or I-type ALU op on x and y; for an
// I-type op y is the sign-extended immediate. Shift amounts >= 32 give
// 0, or all sign bits for SRA (Go's own shift rule, and SMT-LIB's).
// Unsigned division by zero gives all ones, its remainder x. Any other
// op gives 0.
func ALU(op Opcode, x, y uint32) uint32 {
	switch op {
	case OpADD, OpADDI:
		return x + y
	case OpSUB:
		return x - y
	case OpAND, OpANDI:
		return x & y
	case OpOR, OpORI:
		return x | y
	case OpXOR, OpXORI:
		return x ^ y
	case OpSLL, OpSLLI:
		return x << y
	case OpSRL, OpSRLI:
		return x >> y
	case OpSRA, OpSRAI:
		return uint32(int32(x) >> y)
	case OpMUL:
		return x * y
	case OpDIVU:
		if y == 0 {
			return ^uint32(0)
		}
		return x / y
	case OpREMU:
		if y == 0 {
			return x
		}
		return x % y
	case OpSLT, OpSLTI:
		return b2u(int32(x) < int32(y))
	case OpSLTU, OpSLTIU:
		return b2u(x < y)
	}
	return 0
}

func b2u(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// Taken reports whether the conditional branch op on rs1 = x and
// rs2 = y goes to its target. Any other op is never taken.
func Taken(op Opcode, x, y uint32) bool {
	switch op {
	case OpBEQ:
		return x == y
	case OpBNE:
		return x != y
	case OpBLT:
		return int32(x) < int32(y)
	case OpBGE:
		return int32(x) >= int32(y)
	case OpBLTU:
		return x < y
	case OpBGEU:
		return x >= y
	}
	return false
}

// AccessSize is the number of bytes a load or store op moves (1, 2 or
// 4); 0 for any other op.
func AccessSize(op Opcode) int {
	switch op {
	case OpLW, OpSW:
		return 4
	case OpLH, OpLHU, OpSH:
		return 2
	case OpLB, OpLBU, OpSB:
		return 1
	}
	return 0
}

// LoadSigned reports whether load op sign-extends what it reads.
func LoadSigned(op Opcode) bool { return op == OpLH || op == OpLB }

// ExtendLoad widens v, the AccessSize(op) bytes load op read (in its
// low bits), to the 32-bit value the op writes to rd.
func ExtendLoad(op Opcode, v uint32) uint32 {
	switch op {
	case OpLH:
		return uint32(int32(int16(v)))
	case OpLB:
		return uint32(int32(int8(v)))
	case OpLHU:
		return uint32(uint16(v))
	case OpLBU:
		return uint32(uint8(v))
	}
	return v
}
