// Package asm implements a two-pass assembler for the HS32 ISA. It is
// the toolchain used by the examples and the benchmark harness to build
// synthetic firmware images, standing in for the C cross-compiler of
// the original prototype.
//
// Syntax overview (one statement per line, ';' '#' and '//' start
// comments):
//
//	_start:                 ; label
//	    li   r1, 0x40000000 ; pseudo: load 32-bit immediate
//	    la   r2, buf        ; pseudo: load label address
//	    lw   r3, 4(r1)      ; load with base+offset
//	    beq  r3, r0, done
//	    jal  r15, func      ; call
//	    halt                ; pseudo: ecall 0
//	buf:
//	    .word 1, 2, 3
//	    .asciz "hello"
//	    .space 16
//	    .align 4
//	    .org 0x200
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hardsnap/internal/isa"
)

// Program is an assembled firmware image.
type Program struct {
	// Base is the load address of the first byte of Code.
	Base uint32
	// Code is the image contents (little-endian instruction words and
	// data), to be loaded at Base.
	Code []byte
	// Entry is the initial program counter: the `_start` symbol if
	// defined, otherwise Base.
	Entry uint32
	// Symbols maps every label to its address.
	Symbols map[string]uint32
}

// MaxImage is the largest image Assemble lays out, the HS32 default RAM
// size: a `.space`, `.align` or `.org` reaching past it is an error, not
// an allocation.
const MaxImage = 1 << 20

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

type statement struct {
	line    int
	label   string
	mnem    string
	args    []string
	addr    uint32
	size    uint32
	rawText string
}

// Assemble translates source text into a Program loaded at base.
func Assemble(src string, base uint32) (*Program, error) {
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}

	symbols := make(map[string]uint32)
	// Pass 1: layout.
	pc := base
	for i := range stmts {
		st := &stmts[i]
		if st.label != "" {
			if _, dup := symbols[st.label]; dup {
				return nil, &Error{st.line, fmt.Sprintf("duplicate label %q", st.label)}
			}
			symbols[st.label] = pc
		}
		if st.mnem == "" {
			continue
		}
		size, err := sizeOf(st, pc, base)
		if err != nil {
			return nil, err
		}
		st.addr = pc
		st.size = size
		end := uint64(pc) + uint64(size)
		if st.mnem == ".org" {
			target, perr := parseUint(st.args[0])
			if perr != nil {
				return nil, &Error{st.line, perr.Error()}
			}
			if target < uint64(pc) {
				return nil, &Error{st.line, fmt.Sprintf(".org %#x moves backwards from %#x", target, pc)}
			}
			end = target
		}
		if end-uint64(base) > MaxImage || end > math.MaxUint32 {
			return nil, &Error{st.line, fmt.Sprintf("image exceeds %#x bytes from base %#x", MaxImage, base)}
		}
		pc = uint32(end)
	}

	// Pass 2: emit, into an image sized by pass 1 so a large `.space`
	// or `.org` costs one allocation instead of repeated regrowth.
	a := &assembler{symbols: symbols, base: base, out: make([]byte, 0, pc-base)}
	for i := range stmts {
		st := &stmts[i]
		if st.mnem == "" {
			continue
		}
		if err := a.emit(st); err != nil {
			return nil, err
		}
	}

	entry := base
	if e, ok := symbols["_start"]; ok {
		entry = e
	}
	return &Program{Base: base, Code: a.out, Entry: entry, Symbols: symbols}, nil
}

func parse(src string) ([]statement, error) {
	var stmts []statement
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		st := statement{line: lineNo + 1, rawText: line}
		// Labels: "name:" possibly followed by an instruction.
		if idx := strings.Index(line, ":"); idx >= 0 && isIdent(strings.TrimSpace(line[:idx])) {
			st.label = strings.TrimSpace(line[:idx])
			line = strings.TrimSpace(line[idx+1:])
		}
		if line != "" {
			fields := strings.SplitN(line, " ", 2)
			st.mnem = strings.ToLower(strings.TrimSpace(fields[0]))
			if len(fields) == 2 {
				st.args = splitArgs(fields[1])
			}
		}
		stmts = append(stmts, st)
	}
	return stmts, nil
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '"' {
			inStr = !inStr
			continue
		}
		if inStr {
			if c == '\\' {
				i++
			}
			continue
		}
		if c == ';' || c == '#' {
			return line[:i]
		}
		if c == '/' && i+1 < len(line) && line[i+1] == '/' {
			return line[:i]
		}
	}
	return line
}

func splitArgs(s string) []string {
	var args []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			inStr = !inStr
		case inStr && c == '\\':
			i++
		case inStr:
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			args = append(args, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		args = append(args, tail)
	}
	return args
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// sizeOf computes a statement's byte size during pass 1.
func sizeOf(st *statement, pc, base uint32) (uint32, error) {
	switch st.mnem {
	case ".org":
		if len(st.args) != 1 {
			return 0, &Error{st.line, ".org needs one argument"}
		}
		return 0, nil
	case ".word":
		return uint32(4 * len(st.args)), nil
	case ".half":
		return uint32(2 * len(st.args)), nil
	case ".byte":
		return uint32(len(st.args)), nil
	case ".space", ".align":
		if len(st.args) != 1 {
			return 0, &Error{st.line, st.mnem + " needs one argument"}
		}
		n, err := parseUint(st.args[0])
		if err != nil {
			return 0, &Error{st.line, err.Error()}
		}
		if n > MaxImage {
			return 0, &Error{st.line, fmt.Sprintf("%s %#x exceeds the %#x-byte image limit", st.mnem, n, MaxImage)}
		}
		if st.mnem == ".space" {
			return uint32(n), nil
		}
		if n == 0 || n&(n-1) != 0 {
			return 0, &Error{st.line, ".align argument must be a power of two"}
		}
		return uint32((n - uint64(pc)%n) % n), nil
	case ".asciz":
		if len(st.args) != 1 {
			return 0, &Error{st.line, ".asciz needs one argument"}
		}
		s, err := parseString(st.args[0])
		if err != nil {
			return 0, &Error{st.line, err.Error()}
		}
		return uint32(len(s) + 1), nil
	case "li":
		// Size depends on the constant, which is known in pass 1.
		if len(st.args) != 2 {
			return 0, &Error{st.line, "li needs rd, imm"}
		}
		v, err := parseUint(st.args[1])
		if err != nil {
			return 0, &Error{st.line, err.Error()}
		}
		return uint32(4 * len(isa.ExpandLI(0, uint32(v)))), nil
	case "la":
		// The label value is unknown in pass 1: always use the full
		// 5-instruction expansion so layout is deterministic.
		return 20, nil
	default:
		return 4, nil
	}
}

type assembler struct {
	symbols map[string]uint32
	base    uint32
	out     []byte
}

func (a *assembler) pad(to uint32) {
	for uint32(len(a.out)) < to-a.base {
		a.out = append(a.out, 0)
	}
}

func (a *assembler) word(w uint32) {
	a.out = append(a.out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
}

func (a *assembler) emit(st *statement) error {
	a.pad(st.addr)
	switch st.mnem {
	case ".org":
		return nil
	case ".word":
		for _, arg := range st.args {
			v, err := a.value(arg, st)
			if err != nil {
				return err
			}
			a.word(uint32(v))
		}
		return nil
	case ".half":
		for _, arg := range st.args {
			v, err := a.value(arg, st)
			if err != nil {
				return err
			}
			a.out = append(a.out, byte(v), byte(v>>8))
		}
		return nil
	case ".byte":
		for _, arg := range st.args {
			v, err := a.value(arg, st)
			if err != nil {
				return err
			}
			a.out = append(a.out, byte(v))
		}
		return nil
	case ".space", ".align":
		for i := uint32(0); i < st.size; i++ {
			a.out = append(a.out, 0)
		}
		return nil
	case ".asciz":
		s, err := parseString(st.args[0])
		if err != nil {
			return &Error{st.line, err.Error()}
		}
		a.out = append(a.out, s...)
		a.out = append(a.out, 0)
		return nil
	}
	insts, err := a.lower(st)
	if err != nil {
		return err
	}
	for _, in := range insts {
		w, err := isa.Encode(in)
		if err != nil {
			return &Error{st.line, err.Error()}
		}
		a.word(w)
	}
	return nil
}

// value resolves a numeric literal or label reference.
func (a *assembler) value(arg string, st *statement) (uint64, error) {
	if v, ok := a.symbols[arg]; ok {
		return uint64(v), nil
	}
	v, err := parseUint(arg)
	if err != nil {
		return 0, &Error{st.line, fmt.Sprintf("cannot resolve %q", arg)}
	}
	return v, nil
}

func parseUint(s string) (uint64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "+"), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	if neg {
		return uint64(-int64(v)), nil
	}
	return v, nil
}

func parseString(s string) (string, error) {
	return strconv.Unquote(strings.TrimSpace(s))
}

func parseReg(s string) (uint8, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "sp":
		return isa.RegSP, nil
	case "ra":
		return isa.RegRA, nil
	case "zero":
		return isa.RegZero, nil
	}
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

// parseMem parses "offset(reg)" or "(reg)".
func parseMem(s string) (int32, uint8, error) {
	open := strings.Index(s, "(")
	closeP := strings.LastIndex(s, ")")
	if open < 0 || closeP <= open {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	reg, err := parseReg(s[open+1 : closeP])
	if err != nil {
		return 0, 0, err
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		return 0, reg, nil
	}
	off, err := strconv.ParseInt(offStr, 0, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad offset %q", offStr)
	}
	return int32(off), reg, nil
}

var rType = map[string]isa.Opcode{
	"add": isa.OpADD, "sub": isa.OpSUB, "and": isa.OpAND, "or": isa.OpOR,
	"xor": isa.OpXOR, "sll": isa.OpSLL, "srl": isa.OpSRL, "sra": isa.OpSRA,
	"mul": isa.OpMUL, "divu": isa.OpDIVU, "remu": isa.OpREMU,
	"slt": isa.OpSLT, "sltu": isa.OpSLTU,
}

var iType = map[string]isa.Opcode{
	"addi": isa.OpADDI, "andi": isa.OpANDI, "ori": isa.OpORI,
	"xori": isa.OpXORI, "slli": isa.OpSLLI, "srli": isa.OpSRLI,
	"srai": isa.OpSRAI, "slti": isa.OpSLTI, "sltiu": isa.OpSLTIU,
}

var loadType = map[string]isa.Opcode{
	"lw": isa.OpLW, "lh": isa.OpLH, "lhu": isa.OpLHU,
	"lb": isa.OpLB, "lbu": isa.OpLBU,
}

var storeType = map[string]isa.Opcode{
	"sw": isa.OpSW, "sh": isa.OpSH, "sb": isa.OpSB,
}

var branchType = map[string]isa.Opcode{
	"beq": isa.OpBEQ, "bne": isa.OpBNE, "blt": isa.OpBLT,
	"bge": isa.OpBGE, "bltu": isa.OpBLTU, "bgeu": isa.OpBGEU,
}

func (a *assembler) lower(st *statement) ([]isa.Inst, error) {
	need := func(n int) error {
		if len(st.args) != n {
			return &Error{st.line, fmt.Sprintf("%s needs %d operands, got %d", st.mnem, n, len(st.args))}
		}
		return nil
	}
	regArg := func(i int) (uint8, error) {
		r, err := parseReg(st.args[i])
		if err != nil {
			return 0, &Error{st.line, err.Error()}
		}
		return r, nil
	}
	immArg := func(i int) (int32, error) {
		if v, ok := a.symbols[st.args[i]]; ok {
			return int32(v), nil
		}
		v, err := strconv.ParseInt(st.args[i], 0, 64)
		if err != nil {
			return 0, &Error{st.line, fmt.Sprintf("bad immediate %q", st.args[i])}
		}
		return int32(v), nil
	}
	// branchTarget resolves a label (or literal) into a pc-relative
	// byte offset from the branch instruction.
	branchTarget := func(i int, instAddr uint32) (int32, error) {
		if v, ok := a.symbols[st.args[i]]; ok {
			return int32(v) - int32(instAddr), nil
		}
		v, err := strconv.ParseInt(st.args[i], 0, 32)
		if err != nil {
			return 0, &Error{st.line, fmt.Sprintf("unknown branch target %q", st.args[i])}
		}
		return int32(v), nil
	}

	if op, ok := rType[st.mnem]; ok {
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		rs1, err := regArg(1)
		if err != nil {
			return nil, err
		}
		rs2, err := regArg(2)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}}, nil
	}
	if op, ok := iType[st.mnem]; ok {
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		rs1, err := regArg(1)
		if err != nil {
			return nil, err
		}
		imm, err := immArg(2)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: op, Rd: rd, Rs1: rs1, Imm: imm}}, nil
	}
	if op, ok := loadType[st.mnem]; ok {
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		off, rs1, err := parseMem(st.args[1])
		if err != nil {
			return nil, &Error{st.line, err.Error()}
		}
		return []isa.Inst{{Op: op, Rd: rd, Rs1: rs1, Imm: off}}, nil
	}
	if op, ok := storeType[st.mnem]; ok {
		if err := need(2); err != nil {
			return nil, err
		}
		rs2, err := regArg(0)
		if err != nil {
			return nil, err
		}
		off, rs1, err := parseMem(st.args[1])
		if err != nil {
			return nil, &Error{st.line, err.Error()}
		}
		return []isa.Inst{{Op: op, Rs1: rs1, Rs2: rs2, Imm: off}}, nil
	}
	if op, ok := branchType[st.mnem]; ok {
		if err := need(3); err != nil {
			return nil, err
		}
		rs1, err := regArg(0)
		if err != nil {
			return nil, err
		}
		rs2, err := regArg(1)
		if err != nil {
			return nil, err
		}
		off, err := branchTarget(2, st.addr)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: op, Rs1: rs1, Rs2: rs2, Imm: off}}, nil
	}

	switch st.mnem {
	case "lui":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		imm, err := immArg(1)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpLUI, Rd: rd, Imm: imm}}, nil
	case "jal":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		off, err := branchTarget(1, st.addr)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJAL, Rd: rd, Imm: off}}, nil
	case "jalr":
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		rs1, err := regArg(1)
		if err != nil {
			return nil, err
		}
		imm, err := immArg(2)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJALR, Rd: rd, Rs1: rs1, Imm: imm}}, nil
	case "ecall":
		if err := need(1); err != nil {
			return nil, err
		}
		imm, err := immArg(0)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpECALL, Imm: imm}}, nil
	case "mret":
		if err := need(0); err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpMRET}}, nil

	// Pseudo-instructions.
	case "nop":
		return []isa.Inst{{Op: isa.OpADDI}}, nil
	case "mv":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		rs1, err := regArg(1)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpADDI, Rd: rd, Rs1: rs1}}, nil
	case "li":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		v, perr := parseUint(st.args[1])
		if perr != nil {
			return nil, &Error{st.line, perr.Error()}
		}
		return isa.ExpandLI(rd, uint32(v)), nil
	case "la":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := regArg(0)
		if err != nil {
			return nil, err
		}
		addr, ok := a.symbols[st.args[1]]
		if !ok {
			return nil, &Error{st.line, fmt.Sprintf("unknown label %q", st.args[1])}
		}
		return expandLIFixed(rd, addr), nil
	case "j":
		if err := need(1); err != nil {
			return nil, err
		}
		off, err := branchTarget(0, st.addr)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJAL, Rd: isa.RegZero, Imm: off}}, nil
	case "call":
		if err := need(1); err != nil {
			return nil, err
		}
		off, err := branchTarget(0, st.addr)
		if err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJAL, Rd: isa.RegRA, Imm: off}}, nil
	case "ret":
		if err := need(0); err != nil {
			return nil, err
		}
		return []isa.Inst{{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: isa.RegRA}}, nil
	case "halt":
		return []isa.Inst{{Op: isa.OpECALL, Imm: isa.EcallHalt}}, nil
	case "abort":
		return []isa.Inst{{Op: isa.OpECALL, Imm: isa.EcallAbort}}, nil
	}
	return nil, &Error{st.line, fmt.Sprintf("unknown mnemonic %q", st.mnem)}
}

// expandLIFixed is the deterministic 5-instruction constant load used
// by `la`, whose size must not depend on the (pass-2) label value.
func expandLIFixed(rd uint8, v uint32) []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpADDI, Rd: rd, Rs1: isa.RegZero, Imm: int32(v >> 26 & 0x3F)},
		{Op: isa.OpSLLI, Rd: rd, Rs1: rd, Imm: 13},
		{Op: isa.OpORI, Rd: rd, Rs1: rd, Imm: int32(v >> 13 & 0x1FFF)},
		{Op: isa.OpSLLI, Rd: rd, Rs1: rd, Imm: 13},
		{Op: isa.OpORI, Rd: rd, Rs1: rd, Imm: int32(v & 0x1FFF)},
	}
}
