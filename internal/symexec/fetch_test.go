package symexec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"hardsnap/internal/asm"
	"hardsnap/internal/expr"
	"hardsnap/internal/isa"
	"hardsnap/internal/vm"
)

// runConcrete executes a concrete firmware to its end on both
// interpreters: the symbolic executor (which must not fork) and the vm.
func runConcrete(t *testing.T, src string) (*State, *vm.CPU) {
	t.Helper()
	prog := mustAssemble(t, src)
	e, err := New(Config{}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.InitialState()
	for st.Status == StatusRunning && st.Steps < 1000 {
		forks, err := e.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(forks) != 0 {
			t.Fatalf("concrete firmware forked at pc=%#x", st.PC)
		}
	}
	cpu := vm.New(vm.Config{}, nil)
	if err := cpu.Load(prog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && cpu.Step(); i++ {
	}
	return st, cpu
}

// TestTopOfAddressSpaceFaults: an access whose last byte is the top of
// the address space faults on both interpreters. The RAM check adds in
// uint64; in uint32 the sum wraps and the symbolic executor indexed its
// backing with the wrapped offset.
func TestTopOfAddressSpaceFaults(t *testing.T) {
	cases := []struct{ name, body string }{
		{"load", "lbu r4, -1(r0)"},
		{"word load", "lw r4, -2(r0)"},
		{"store", "sb r4, -1(r0)"},
		{"fetch", "addi r1, r0, -4\n\t\tjalr r0, r1, 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, cpu := runConcrete(t, "_start:\n\t\t"+c.body+"\n\t\thalt\n")
			if st.Status != StatusFault {
				t.Errorf("symexec: status %v (err %v), want fault", st.Status, st.Err)
			}
			if cpu.Stop != vm.StopFault {
				t.Errorf("vm: stop %v (fault %v), want fault", cpu.Stop, cpu.Fault)
			}
		})
	}
}

// TestSelfModifyingCodeMatchesVM: firmware that stores a concrete
// instruction word into its own code and then executes it ends with the
// same registers and console on both interpreters. The first pass runs
// the original word from the decoded table; the second must see the
// patched word in the overlay.
func TestSelfModifyingCodeMatchesVM(t *testing.T) {
	patched, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
_start:
		la r2, patch
		la r3, newinst
		lw r4, 0(r3)
		addi r6, r0, 2
patch:
		addi r5, r0, 1
		add r1, r5, r0
		ecall 7
		sw r4, 0(r2)
		addi r6, r6, -1
		bne r6, r0, patch
		halt
newinst:
		.word %d
`, patched)
	st, cpu := runConcrete(t, src)
	if st.Status != StatusHalted || cpu.Stop != vm.StopHalt {
		t.Fatalf("symexec %v (%v), vm %v (%v); want both halted", st.Status, st.Err, cpu.Stop, cpu.Fault)
	}
	if string(cpu.Console) != "12" {
		t.Fatalf("vm console %q, want \"12\"", cpu.Console)
	}
	if string(st.Console) != string(cpu.Console) {
		t.Errorf("symexec console %q, vm %q", st.Console, cpu.Console)
	}
	for i, r := range st.Regs {
		if v, ok := r.Const(); !ok || uint32(v) != cpu.Regs[i] {
			t.Errorf("r%d: symexec %v, vm %#x", i, r, cpu.Regs[i])
		}
	}
}

// TestSymbolicCodeByteFaultsOnFetch: a symbolic byte stored into code
// makes the word it lands in unfetchable, as before the decoded table.
func TestSymbolicCodeByteFaultsOnFetch(t *testing.T) {
	prog := mustAssemble(t, `
_start:
		la r1, patch
		addi r2, r0, 1
		addi r3, r0, 9
		ecall 1
patch:
		addi r5, r0, 1
		halt
`)
	e, err := New(Config{}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	finished := exploreWith(t, e)
	if len(finished) != 1 || finished[0].Status != StatusFault {
		t.Fatalf("states %v, want one fault", statuses(finished))
	}
	var fe *vm.FaultError
	if err := finished[0].Err; !errors.As(err, &fe) || fe.Msg != "fetch of symbolic memory" || fe.Addr != prog.Symbols["patch"] {
		t.Fatalf("err %v, want \"fetch of symbolic memory\" at %#x", err, prog.Symbols["patch"])
	}
}

// TestStateFromConcreteDecodesItsOwnCode: a hand-off from a concrete
// RAM whose code differs from the program's executes the RAM's code,
// not the executor's decoded table; an unchanged RAM shares the table.
func TestStateFromConcreteDecodesItsOwnCode(t *testing.T) {
	prog := mustAssemble(t, `
_start:
patch:
		addi r5, r0, 1
		halt
`)
	e, err := New(Config{}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mem []byte) *State {
		t.Helper()
		st, err := e.StateFromConcrete(prog.Entry, [isa.NumRegs]uint32{}, mem, 0, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		for st.Status == StatusRunning && st.Steps < 10 {
			if _, err := e.Step(st); err != nil {
				t.Fatal(err)
			}
		}
		if st.Status != StatusHalted {
			t.Fatalf("status %v (err %v), want halted", st.Status, st.Err)
		}
		return st
	}
	cpu := vm.New(vm.Config{}, nil)
	if err := cpu.Load(prog); err != nil {
		t.Fatal(err)
	}
	if st := run(cpu.Mem); st.Mem.code != e.code {
		t.Error("a hand-off of the unchanged program does not share the decoded table")
	}
	w, err := isa.Encode(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 7})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(cpu.Mem[prog.Symbols["patch"]:], w)
	if v, _ := run(cpu.Mem).Regs[5].Const(); v != 7 {
		t.Fatalf("r5 = %d after a hand-off with a patched word, want 7", v)
	}
}

// FuzzFetchMatchesDecode checks the decoded-table fetch against the
// term path it replaces: over a random code image and a random sequence
// of concrete and symbolic overlay stores (half of them made before a
// Clone, half after, on the clone), at every PC in and just around the
// code range, fetchDecoded either declines or returns exactly the
// instruction ConcreteWord + isa.Decode yields, and never serves an
// illegal word. It must serve every legal word of the table that no
// store has landed in.
func FuzzFetchMatchesDecode(f *testing.F) {
	prog, err := asm.Assemble(`
_start:
		la r1, buf
		addi r2, r0, 4
		ecall 1
		lw r4, 0(r1)
		beq r4, r0, done
		sw r4, 4(r1)
done:
		halt
buf:
		.word 0, 0xffffffff
`, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prog.Code, uint8(0), []byte{})
	f.Add(prog.Code, uint8(4), []byte{0x80, 0x0c, 0x13, 0x00, 0x21, 0x55})
	f.Add(prog.Code, uint8(3), []byte{0x00, 0x30, 0x00})
	// A store into the code range, then a Clone that must carry it.
	f.Add(prog.Code, uint8(4), []byte{0x08, 0x00, 0xaa, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint8(255), []byte{0x00, 0x02, 0x04})
	f.Fuzz(func(t *testing.T, code []byte, at uint8, ops []byte) {
		const ramBase, ramSize = 0x1000, 0x200
		image := make([]byte, ramSize)
		off := uint32(at) % ramSize
		code = code[:min(len(code), int(ramSize-off))]
		copy(image[off:], code)
		codeBase := ramBase + off
		table := isa.DecodeProgram(codeBase, code)
		tableEnd := codeBase + 4*uint32(len(code)/4)

		b := expr.NewBuilder()
		m := newMemory(ramBase, image, table)
		mems := []*Memory{m}
		// stored[k] holds the code words a store into mems[k] landed in.
		stored := []map[uint32]bool{{}}
		for i := 0; i+3 <= len(ops); i += 3 {
			if i == len(ops)/6*3 {
				m = m.Clone()
				mems = append(mems, m)
				stored = append(stored, maps.Clone(stored[len(stored)-1]))
			}
			addr := codeBase - 8 + uint32(binary.LittleEndian.Uint16(ops[i:]))%uint32(len(code)+16)
			v := b.Const(uint64(ops[i+2]), 8)
			if ops[i]&1 != 0 {
				v = b.Var(fmt.Sprintf("s%d", i), 8)
			}
			if m.StoreByte(addr, v) == nil && addr >= codeBase && addr < tableEnd {
				stored[len(stored)-1][(addr-codeBase)/4] = true
			}
		}
		for pc := codeBase - 8; pc != tableEnd+8; pc++ {
			for k, m := range mems {
				in, ok := m.fetchDecoded(pc)
				word, werr := m.ConcreteWord(b, pc)
				var want isa.Inst
				derr := werr
				if werr == nil {
					want, derr = isa.Decode(word)
				}
				if ok && (derr != nil || in != want) {
					t.Fatalf("pc %#x: table gives %v, term path gives %v (err %v)", pc, in, want, derr)
				}
				inTable := pc >= codeBase && pc < tableEnd && (pc-codeBase)%4 == 0
				if !ok && inTable && !stored[k][(pc-codeBase)/4] && derr == nil {
					t.Fatalf("pc %#x: table declined a legal word %v with no store in that word", pc, want)
				}
			}
		}
	})
}

// TestFetchFaultMessagesUnchanged: fetches the table declines keep the
// term path's fault messages.
func TestFetchFaultMessagesUnchanged(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"_start:\n\t\t.word 0xffffffff\n", "illegal instruction 0xffffffff"},
		{"_start:\n\t\tli r1, 0x30000000\n\t\tjalr r0, r1, 0\n", "symbolic load outside RAM"},
	} {
		st, _ := runConcrete(t, c.src)
		if st.Status != StatusFault || st.Err == nil || !strings.Contains(st.Err.Error(), c.want) {
			t.Errorf("%q: status %v err %v, want a fault containing %q", c.src, st.Status, st.Err, c.want)
		}
	}
}
