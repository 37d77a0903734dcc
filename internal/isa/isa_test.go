package isa

import (
	"testing"
	"testing/quick"

	"hardsnap/internal/testseed"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []Inst{
		{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpSUB, Rd: 15, Rs1: 14, Rs2: 13},
		{Op: OpADDI, Rd: 1, Rs1: 0, Imm: -1},
		{Op: OpADDI, Rd: 1, Rs1: 0, Imm: 8191},
		{Op: OpADDI, Rd: 1, Rs1: 0, Imm: -8192},
		{Op: OpLUI, Rd: 2, Imm: 0x1000},
		{Op: OpLW, Rd: 3, Rs1: 4, Imm: 64},
		{Op: OpSW, Rs1: 4, Rs2: 5, Imm: -4},
		{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -8},
		{Op: OpJAL, Rd: 15, Imm: 1 << 20},
		{Op: OpJAL, Rd: 0, Imm: -(1 << 21)},
		{Op: OpJALR, Rd: 0, Rs1: 15, Imm: 0},
		{Op: OpECALL, Imm: EcallMakeSymbolic},
		{Op: OpMRET},
	}
	for _, in := range tests {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		// LUI immediates may be sign-normalized by decode.
		if in.Op == OpLUI {
			if LUIValue(got.Imm) != LUIValue(in.Imm) {
				t.Fatalf("LUI round trip: %v -> %v", in, got)
			}
			continue
		}
		if got != in {
			t.Fatalf("round trip: %v -> %#08x -> %v", in, w, got)
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	bad := []Inst{
		{Op: OpADDI, Rd: 1, Imm: 8192},
		{Op: OpADDI, Rd: 1, Imm: -8193},
		{Op: OpJAL, Rd: 1, Imm: 1 << 21},
		{Op: OpLUI, Rd: 1, Imm: 1 << 14},
		{Op: Opcode(0), Rd: 1},
		{Op: opMax},
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("encode %v should fail", in)
		}
	}
}

func TestDecodeIllegal(t *testing.T) {
	if _, err := Decode(0); err == nil {
		t.Error("decoding zero word should fail")
	}
	if _, err := Decode(0xFFFFFFFF); err == nil {
		t.Error("decoding all-ones should fail")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(op8, rd, rs1, rs2 uint8, imm int16) bool {
		op := Opcode(op8%uint8(opMax-1)) + 1
		if op == OpJAL || op == OpLUI {
			return true // covered separately
		}
		in := Inst{
			Op:  op,
			Rd:  rd % NumRegs,
			Rs1: rs1 % NumRegs,
			Rs2: rs2 % NumRegs,
			Imm: int32(imm) % 8192,
		}
		w, err := Encode(in)
		if err != nil {
			return false
		}
		got, err := Decode(w)
		return err == nil && got == in
	}
	if err := quick.Check(f, testseed.Quick(t, 2000)); err != nil {
		t.Fatal(err)
	}
}

func TestLUIValue(t *testing.T) {
	// Raw field 0x1000 places bits at [31:18].
	if LUIValue(0x1000) != 0x40000000 {
		t.Fatalf("LUIValue(0x1000) = %#x", LUIValue(0x1000))
	}
	// A sign-extended negative immediate must produce the same bits as
	// its raw 14-bit pattern.
	w, err := Encode(Inst{Op: OpLUI, Rd: 1, Imm: 0x3FFF})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(w)
	if err != nil {
		t.Fatal(err)
	}
	if LUIValue(got.Imm) != 0xFFFC0000 {
		t.Fatalf("LUIValue after decode = %#x, want 0xFFFC0000", LUIValue(got.Imm))
	}
}

func TestExpandLI(t *testing.T) {
	cases := []struct {
		v      uint32
		maxLen int
	}{
		{0, 1},
		{1, 1},
		{8191, 1},
		{0xFFFFFFFF, 1}, // -1 fits ADDI
		{0x40000000, 1}, // lui only
		{0x40000FFF, 2}, // lui + ori
		{0xDEADBEEF, 5},
		{0x12345678, 5},
		{0x0003FFFF, 5},
	}
	for _, tc := range cases {
		seq := ExpandLI(5, tc.v)
		if len(seq) > tc.maxLen {
			t.Errorf("ExpandLI(%#x): %d instructions, want <= %d", tc.v, len(seq), tc.maxLen)
		}
		// Simulate the sequence.
		var regs [NumRegs]uint32
		for _, in := range seq {
			if _, err := Encode(in); err != nil {
				t.Fatalf("ExpandLI(%#x) produced unencodable %v: %v", tc.v, in, err)
			}
			switch in.Op {
			case OpADDI:
				regs[in.Rd] = regs[in.Rs1] + uint32(in.Imm)
			case OpLUI:
				regs[in.Rd] = LUIValue(in.Imm)
			case OpORI:
				regs[in.Rd] = regs[in.Rs1] | uint32(in.Imm)
			case OpSLLI:
				regs[in.Rd] = regs[in.Rs1] << uint(in.Imm)
			default:
				t.Fatalf("unexpected op %v in ExpandLI", in.Op)
			}
		}
		if regs[5] != tc.v {
			t.Errorf("ExpandLI(%#x) loads %#x", tc.v, regs[5])
		}
	}
}

func TestExpandLIQuick(t *testing.T) {
	f := func(v uint32) bool {
		var regs [NumRegs]uint32
		for _, in := range ExpandLI(3, v) {
			if _, err := Encode(in); err != nil {
				return false
			}
			switch in.Op {
			case OpADDI:
				regs[in.Rd] = regs[in.Rs1] + uint32(in.Imm)
			case OpLUI:
				regs[in.Rd] = LUIValue(in.Imm)
			case OpORI:
				regs[in.Rd] = regs[in.Rs1] | uint32(in.Imm)
			case OpSLLI:
				regs[in.Rd] = regs[in.Rs1] << uint(in.Imm)
			}
		}
		return regs[3] == v
	}
	if err := quick.Check(f, testseed.Quick(t, 5000)); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembly(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpADDI, Rd: 1, Rs1: 0, Imm: -5}, "addi r1, r0, -5"},
		{Inst{Op: OpLW, Rd: 3, Rs1: 4, Imm: 8}, "lw r3, 8(r4)"},
		{Inst{Op: OpSW, Rs1: 4, Rs2: 5, Imm: -4}, "sw r5, -4(r4)"},
		{Inst{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: 16}, "beq r1, r2, 16"},
		{Inst{Op: OpJAL, Rd: 15, Imm: 100}, "jal r15, 100"},
		{Inst{Op: OpECALL, Imm: 2}, "ecall 2"},
		{Inst{Op: OpMRET}, "mret"},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestAccessSizeAndLoadExtension pins each memory op's width and each
// load's extension. The vm and symexec both take these from isa, so
// the differential tests between them cannot catch a wrong entry.
func TestAccessSizeAndLoadExtension(t *testing.T) {
	sizes := map[Opcode]int{
		OpLW: 4, OpSW: 4, OpLH: 2, OpLHU: 2, OpSH: 2, OpLB: 1, OpLBU: 1, OpSB: 1,
		OpADD: 0, OpBEQ: 0, OpJALR: 0,
	}
	for op, want := range sizes {
		if got := AccessSize(op); got != want {
			t.Errorf("AccessSize(%v) = %d, want %d", op, got, want)
		}
	}
	for _, c := range []struct {
		op      Opcode
		in, out uint32
	}{
		{OpLW, 0x80808080, 0x80808080},
		{OpLH, 0x8080, 0xffff8080},
		{OpLHU, 0x8080, 0x8080},
		{OpLB, 0x80, 0xffffff80},
		{OpLBU, 0x80, 0x80},
		{OpLB, 0x7f, 0x7f},
	} {
		if got := ExtendLoad(c.op, c.in); got != c.out {
			t.Errorf("ExtendLoad(%v, %#x) = %#x, want %#x", c.op, c.in, got, c.out)
		}
	}
	for op := OpLW; op <= OpLBU; op++ {
		if want := op == OpLH || op == OpLB; LoadSigned(op) != want {
			t.Errorf("LoadSigned(%v) = %v, want %v", op, !want, want)
		}
	}
}
