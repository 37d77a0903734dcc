package vm

import (
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"hardsnap/internal/asm"
	"hardsnap/internal/isa"
	"hardsnap/internal/testseed"
)

// Operations of the fetch property, one per 7 bytes: a kind byte, a
// 16-bit address offset and a 32-bit value.
const (
	fetchOpStore    = iota // WriteMem of 1, 2 or 4 bytes in or around the code
	fetchOpSnapshot        // take a snapshot (the first one is the anchor)
	fetchOpRestore         // restore one of the snapshots taken
	fetchOpReload          // Reset, then Load the program again
	fetchOpKinds
)

// decodeAt is what fetch must give at pc: the memory word there
// decoded now, with fetch's fault messages.
func decodeAt(c *CPU, pc uint32) (isa.Inst, error) {
	if !c.cfg.InRAM(pc, 4) {
		return isa.Inst{}, &FaultError{PC: pc, Addr: pc, Msg: "instruction fetch outside RAM"}
	}
	in, err := isa.Decode(binary.LittleEndian.Uint32(c.Mem[pc-c.cfg.RAMBase:]))
	if err != nil {
		return isa.Inst{}, &FaultError{PC: pc, Addr: pc, Msg: err.Error()}
	}
	return in, nil
}

// checkFetch loads code at RAM offset at and runs ops on the CPU. After
// the load and after every op, fetch at each PC from 8 bytes below the
// code to 8 bytes past it must give what decodeAt gives. It returns ""
// or the first mismatch.
func checkFetch(code []byte, at uint16, ops []byte) string {
	cfg := Config{RAMBase: 0x1000, RAMSize: 2*pageSize + 64} // a short last page
	cpu := New(cfg, nil)
	off := uint32(at) % cfg.RAMSize
	code = code[:min(len(code), int(cfg.RAMSize-off))]
	prog := &asm.Program{Base: cfg.RAMBase + off, Code: code, Entry: cfg.RAMBase + off}
	if err := cpu.Load(prog); err != nil {
		return err.Error()
	}
	lo, span := prog.Base-8, uint32(len(code))+16
	check := func(after string) string {
		for pc := lo; pc != lo+span; pc++ {
			cpu.PC = pc
			got, gerr := cpu.fetch()
			want, werr := decodeAt(cpu, pc)
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				return fmt.Sprintf("after %s: pc %#x: fetch gives %v (%v), decode gives %v (%v)", after, pc, got, gerr, want, werr)
			}
		}
		return ""
	}
	if bad := check("load"); bad != "" {
		return bad
	}
	var snaps []*Snapshot
	for i := 0; i+7 <= len(ops); i += 7 {
		kind := ops[i] % fetchOpKinds
		arg := uint32(binary.LittleEndian.Uint16(ops[i+1:]))
		val := binary.LittleEndian.Uint32(ops[i+3:])
		switch kind {
		case fetchOpStore:
			_ = cpu.WriteMem(lo+arg%span, 1<<(ops[i]/fetchOpKinds%3), val) // may land outside RAM
		case fetchOpSnapshot:
			snaps = append(snaps, cpu.Snapshot())
		case fetchOpRestore:
			if len(snaps) > 0 {
				cpu.RestoreSnapshot(snaps[int(arg)%len(snaps)])
			}
		case fetchOpReload:
			cpu.Reset()
			if err := cpu.Load(prog); err != nil {
				return err.Error()
			}
		}
		if bad := check(fmt.Sprintf("op %d (kind %d)", i/7, kind)); bad != "" {
			return bad
		}
	}
	return ""
}

// fetchSeedCode is a short program whose words are all legal, so a
// store into it changes the instruction an entry holds.
func fetchSeedCode(tb testing.TB) []byte {
	tb.Helper()
	p, err := asm.Assemble(`
_start:
		addi r1, r0, 5
		lw r2, 0(r1)
		beq r2, r0, _start
		halt
`, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return p.Code
}

// FuzzVMFetchMatchesDecode checks the vm's decoded-table fetch against
// decoding the memory word at every fetch: over a random code image at
// a random RAM offset, random stores in and around the code, snapshots,
// dirty-page and full restores, and Reset with a reload, every PC in
// and around the code range fetches the instruction, or the fault, that
// isa.Decode of the word in RAM gives.
func FuzzVMFetchMatchesDecode(f *testing.F) {
	code := fetchSeedCode(f)
	f.Add(code, uint16(0), []byte{})
	// Patch the second word, then restore the anchor and reload.
	f.Add(code, uint16(0x40), []byte{
		fetchOpSnapshot, 0, 0, 0, 0, 0, 0,
		fetchOpStore + 2*fetchOpKinds, 12, 0, 0x05, 0x00, 0x40, 0x3c,
		fetchOpRestore, 0, 0, 0, 0, 0, 0,
		fetchOpStore, 13, 0, 0xff, 0, 0, 0,
		fetchOpReload, 0, 0, 0, 0, 0, 0,
	})
	// Code across a page boundary and at the top of RAM.
	f.Add(code, uint16(pageSize-6), []byte{fetchOpSnapshot, 0, 0, 0, 0, 0, 0, fetchOpStore + fetchOpKinds, 9, 0, 1, 2, 3, 4})
	f.Add(code, uint16(2*pageSize+56), []byte{fetchOpStore, 12, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint16(3), []byte{fetchOpReload, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, code []byte, at uint16, ops []byte) {
		if bad := checkFetch(code, at, ops); bad != "" {
			t.Fatal(bad)
		}
	})
}

// TestVMFetchMatchesDecode is FuzzVMFetchMatchesDecode's property over
// testing/quick's random inputs, with a store-heavy program image.
func TestVMFetchMatchesDecode(t *testing.T) {
	code := fetchSeedCode(t)
	f := func(extra []byte, at uint16, ops []byte) bool {
		if bad := checkFetch(append(code[:len(code):len(code)], extra...), at, ops); bad != "" {
			t.Error(bad)
			return false
		}
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// TestLoadKeepsDecodedTable: loading the program the CPU's table was
// built from, as the fuzzer's reboot reset does every exec, allocates
// nothing; a different program gets a table of its own.
func TestLoadKeepsDecodedTable(t *testing.T) {
	p, err := asm.Assemble("_start:\n\t\taddi r1, r0, 1\n\t\thalt\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(Config{}, nil)
	if err := cpu.Load(p); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		cpu.Reset()
		if err := cpu.Load(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Reset+Load of the same program: %v allocs, want 0", n)
	}
	q, err := asm.Assemble("_start:\n\t\taddi r1, r0, 2\n\t\thalt\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Load(q); err != nil {
		t.Fatal(err)
	}
	if in, ok := cpu.code.Fetch(q.Entry, binary.LittleEndian.Uint32(cpu.Mem[q.Entry:])); !ok || in.Imm != 2 {
		t.Fatalf("after loading another program the table serves %v (ok %v), want its addi r1, r0, 2", in, ok)
	}
}
