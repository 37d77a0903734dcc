package symexec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hardsnap/internal/asm"
	"hardsnap/internal/expr"
	"hardsnap/internal/isa"
	"hardsnap/internal/vm"
)

// stepOps are the ops stepMismatch draws from: every ALU, load, store
// and conditional branch op (the contiguous run OpADD..OpBGEU, LUI
// aside).
var stepOps = func() (ops []isa.Opcode) {
	for op := isa.OpADD; op <= isa.OpBGEU; op++ {
		if op != isa.OpLUI {
			ops = append(ops, op)
		}
	}
	return ops
}()

// stepRAM is the RAM of stepMismatch's machine.
const stepRAM = 0x200

// stepMismatch executes one instruction three ways and describes the
// first disagreement (nil: none): on vm.CPU, on symexec with concrete
// registers (expr.Builder folds every result), and on symexec with r1
// and r2 as variables pinned to x and y by the path condition, its
// results evaluated by expr.Eval. The instruction is the op sel picks
// (sel's top bit also sets y = x, so equal operands come up at random)
// with rd, rs1 = r1 = x, rs2 = r2 = y and the 14-bit immediate imm
// holds; a load or store has x folded into an address range that runs
// off both ends of RAM. The three must agree on a fault, the next PC,
// every register and every RAM byte.
func stepMismatch(sel, rd uint8, x, y uint32, imm int16) error {
	op := stepOps[int(sel&0x7f)%len(stepOps)]
	if sel&0x80 != 0 {
		y = x
	}
	if isa.AccessSize(op) != 0 {
		x = x%(stepRAM+0x100) - 0x80
	}
	in := isa.Inst{Op: op, Rd: rd % isa.NumRegs, Rs1: 1, Rs2: 2, Imm: int32(imm << 2 >> 2)}
	word, err := isa.Encode(in)
	if err != nil {
		return err
	}
	code := make([]byte, stepRAM)
	binary.LittleEndian.PutUint32(code, word)
	for i := 4; i < len(code); i++ {
		code[i] = byte(i*37 + 11)
	}
	prog := &asm.Program{Code: code}
	cfg := vm.Config{RAMSize: stepRAM}

	cpu := vm.New(cfg, nil)
	if err := cpu.Load(prog); err != nil {
		return err
	}
	cpu.Regs[1], cpu.Regs[2] = x, y
	regs, image := cpu.Regs, slices.Clone(cpu.Mem)
	cpu.Step()

	for _, symbolic := range []bool{false, true} {
		mode := fmt.Sprintf("%v (r1=%#x r2=%#x), symbolic=%v", in, x, y, symbolic)
		e, err := New(Config{VM: cfg}, prog, nil)
		if err != nil {
			return err
		}
		st, err := e.StateFromConcrete(0, regs, image, 0, false, 0)
		if err != nil {
			return err
		}
		assign := expr.Assignment{}
		if symbolic {
			for r, v := range map[uint8]uint32{1: x, 2: y} {
				name := fmt.Sprintf("r%d", r)
				st.Regs[r] = e.B.Var(name, 32)
				st.AddConstraint(e.B.Eq(st.Regs[r], e.B.Const(uint64(v), 32)))
				assign[name] = uint64(v)
			}
			st.Witness = assign
		}
		forks, err := e.Step(st)
		if err != nil {
			return fmt.Errorf("%s: %v", mode, err)
		}
		if len(forks) != 0 {
			return fmt.Errorf("%s: forked %d states with both operands pinned", mode, len(forks))
		}
		if vmFault := cpu.Stop == vm.StopFault; vmFault != (st.Status == StatusFault) {
			return fmt.Errorf("%s: vm stop %v (%v), symexec status %v (%v)", mode, cpu.Stop, cpu.Fault, st.Status, st.Err)
		}
		if st.Status == StatusFault {
			continue
		}
		if st.Status != StatusRunning || st.PC != cpu.PC {
			return fmt.Errorf("%s: symexec %v at pc %#x, vm at pc %#x", mode, st.Status, st.PC, cpu.PC)
		}
		for i, t := range st.Regs {
			if _, ok := t.Const(); !ok && !symbolic {
				return fmt.Errorf("%s: r%d is %v, not folded to a constant", mode, i, t)
			}
			if v := uint32(expr.Eval(t, assign)); v != cpu.Regs[i] {
				return fmt.Errorf("%s: r%d is %#x, vm %#x", mode, i, v, cpu.Regs[i])
			}
		}
		for a := uint32(0); a < stepRAM; a++ {
			t, err := st.Mem.LoadByte(e.B, a)
			if err != nil {
				return fmt.Errorf("%s: byte %#x: %v", mode, a, err)
			}
			if v := byte(expr.Eval(t, assign)); v != cpu.Mem[a] {
				return fmt.Errorf("%s: byte %#x is %#x, vm %#x", mode, a, v, cpu.Mem[a])
			}
		}
	}
	return nil
}

// FuzzStepMatchesVM: one ALU, load, store or branch instruction leaves
// vm.CPU and symexec, with concrete and with symbolic operands, in the
// same state (see stepMismatch). The seeds name the edges of
// isa's rules: shifts by 32 and more, division by zero, sign-extending
// loads, signed against unsigned compares, and accesses at the ends
// of RAM and of the address space.
func FuzzStepMatchesVM(f *testing.F) {
	sel := func(op isa.Opcode) uint8 { return uint8(slices.Index(stepOps, op)) }
	f.Add(sel(isa.OpSLL), uint8(3), uint32(0xdeadbeef), uint32(32), int16(0))
	f.Add(sel(isa.OpSRAI), uint8(3), uint32(0x80000000), uint32(0), int16(40))
	f.Add(sel(isa.OpSRL), uint8(1), uint32(0xffffffff), uint32(31), int16(0))
	f.Add(sel(isa.OpDIVU), uint8(3), uint32(7), uint32(0), int16(0))
	f.Add(sel(isa.OpREMU), uint8(0), uint32(7), uint32(0), int16(0))
	f.Add(sel(isa.OpSLTI), uint8(3), uint32(0xfffffffe), uint32(0), int16(-1))
	f.Add(sel(isa.OpSLTIU), uint8(3), uint32(5), uint32(0), int16(-1))
	f.Add(sel(isa.OpLB), uint8(3), uint32(0x80+0x13), uint32(0), int16(0))
	f.Add(sel(isa.OpLH), uint8(2), uint32(0x80+0x20), uint32(0), int16(-2))
	f.Add(sel(isa.OpLW), uint8(3), uint32(0x80), uint32(0), int16(stepRAM-4))
	f.Add(sel(isa.OpSW), uint8(0), uint32(0x80), uint32(0x11223344), int16(stepRAM-2))
	f.Add(sel(isa.OpSH), uint8(0), uint32(0x7f), uint32(0xabcd), int16(0))
	f.Add(sel(isa.OpSB), uint8(0), uint32(0x80+4), uint32(0x1ff), int16(0))
	f.Add(sel(isa.OpBLT)|0x80, uint8(0), uint32(1), uint32(0), int16(-8))
	f.Add(sel(isa.OpBLTU), uint8(0), uint32(0xffffffff), uint32(1), int16(12))
	f.Add(sel(isa.OpBGE), uint8(0), uint32(0xffffffff), uint32(1), int16(12))
	f.Fuzz(func(t *testing.T, sel, rd uint8, x, y uint32, imm int16) {
		if err := stepMismatch(sel, rd, x, y, imm); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepMatchesVMQuick is FuzzStepMatchesVM on random cases, so that
// `go test` draws new ones every run.
func TestStepMatchesVMQuick(t *testing.T) {
	agree := func(sel, rd uint8, x, y uint32, imm int16) bool {
		err := stepMismatch(sel, rd, x, y, imm)
		if err != nil {
			t.Error(err)
		}
		return err == nil
	}
	if err := quick.Check(agree, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// recordMMIO is a bus that counts the accesses forwarded to it.
type recordMMIO struct{ accesses int }

func (m *recordMMIO) ReadMMIO(uint32, int) (uint32, error) { m.accesses++; return 0, nil }
func (m *recordMMIO) WriteMMIO(uint32, int, uint32) error  { m.accesses++; return nil }

// TestMakeSymbolicBufferMatchesVM runs a make-symbolic ecall on the vm,
// filled by CPU.FillInput as the fuzzer and replay fill it, and on
// symexec. A buffer that straddles the end of RAM, lies in the MMIO
// window or is longer than vm.MaxInput faults at the ecall on both,
// before a byte moves; one in RAM holds the same bytes on both
// (symexec's evaluated with the input as the assignment); an empty
// one is a no-op wherever it points.
func TestMakeSymbolicBufferMatchesVM(t *testing.T) {
	cfg := vm.Config{RAMSize: 2 * 4096}.WithDefaults()
	word, err := isa.Encode(isa.Inst{Op: isa.OpECALL, Imm: isa.EcallMakeSymbolic})
	if err != nil {
		t.Fatal(err)
	}
	prog := &asm.Program{Code: binary.LittleEndian.AppendUint32(nil, word)}
	input := []byte("make-symbolic input bytes")
	const tag = 7
	cases := []struct {
		name         string
		addr, length uint32
		fault        bool
	}{
		{"straddles the end of RAM", cfg.RAMSize - 4, 8, true},
		{"in the MMIO window", cfg.MMIOBase, 4, true},
		{"longer than MaxInput", 0x10, vm.MaxInput + 1, true},
		{"in RAM across a page", 4096 - 8, 16, false},
		{"empty, in the MMIO window", cfg.MMIOBase, 0, false},
	}
	for _, tc := range cases {
		bus := &recordMMIO{}
		cpu := vm.New(cfg, bus)
		if err := cpu.Load(prog); err != nil {
			t.Fatal(err)
		}
		cpu.Regs[1], cpu.Regs[2], cpu.Regs[3] = tc.addr, tc.length, tag
		cpu.OnEcall = func(c *vm.CPU, service int32) bool {
			c.FillInput(input)
			return true
		}
		regs, image := cpu.Regs, slices.Clone(cpu.Mem)
		cpu.Step()

		e, err := New(Config{VM: cfg}, prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.StateFromConcrete(0, regs, image, 0, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(st); err != nil {
			t.Fatalf("%s: symexec: %v", tc.name, err)
		}

		var vmFault, symFault *vm.FaultError
		errors.As(cpu.Fault, &vmFault)
		errors.As(st.Err, &symFault)
		switch {
		case tc.fault && (cpu.Stop != vm.StopFault || vmFault == nil || vmFault.PC != 0):
			t.Errorf("%s: vm stopped %v (%v), want a fault at the ecall", tc.name, cpu.Stop, cpu.Fault)
		case tc.fault && (st.Status != StatusFault || symFault == nil || symFault.PC != 0 || st.PC != 0):
			t.Errorf("%s: symexec %v at pc %#x (%v), want a fault at the ecall", tc.name, st.Status, st.PC, st.Err)
		case !tc.fault && (cpu.Stop != vm.StopNone || st.Status != StatusRunning || cpu.PC != 4 || st.PC != 4):
			t.Errorf("%s: vm %v at pc %#x, symexec %v at pc %#x; want both running at 4", tc.name, cpu.Stop, cpu.PC, st.Status, st.PC)
		}
		if bus.accesses != 0 {
			t.Errorf("%s: vm forwarded %d accesses to the MMIO bus", tc.name, bus.accesses)
		}
		assign := expr.Assignment{}
		for i, b := range input {
			assign[fmt.Sprintf("sym%d_%d", tag, i)] = uint64(b)
		}
		for a := uint32(0); a < cfg.RAMSize; a++ {
			want := image[a]
			if !tc.fault && a-tc.addr < tc.length {
				want = 0
				if i := a - tc.addr; i < uint32(len(input)) {
					want = input[i]
				}
			}
			if cpu.Mem[a] != want {
				t.Fatalf("%s: vm byte %#x is %#x, want %#x", tc.name, a, cpu.Mem[a], want)
			}
			bt, err := st.Mem.LoadByte(e.B, a)
			if err != nil {
				t.Fatal(err)
			}
			if v := byte(expr.Eval(bt, assign)); v != want {
				t.Fatalf("%s: symexec byte %#x is %#x, want %#x", tc.name, a, v, want)
			}
		}
	}
}
