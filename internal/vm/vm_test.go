package vm

import (
	"errors"
	"testing"

	"hardsnap/internal/asm"
	"hardsnap/internal/isa"
)

func run(t *testing.T, src string) *CPU {
	t.Helper()
	p, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cpu := New(Config{}, nil)
	if err := cpu.Load(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	runToStop(cpu)
	return cpu
}

// runToStop steps the CPU until it stops, giving up after 100k
// instructions (the stop reason is then still StopNone).
func runToStop(cpu *CPU) StopReason {
	for i := 0; i < 100000 && cpu.Step(); i++ {
	}
	return cpu.Stop
}

func TestArithmeticProgram(t *testing.T) {
	cpu := run(t, `
		addi r1, r0, 6
		addi r2, r0, 7
		mul r3, r1, r2
		halt
	`)
	if cpu.Stop != StopHalt {
		t.Fatalf("stop %v (fault %v)", cpu.Stop, cpu.Fault)
	}
	if cpu.Regs[3] != 42 {
		t.Fatalf("r3 = %d, want 42", cpu.Regs[3])
	}
}

func TestLoop(t *testing.T) {
	cpu := run(t, `
		addi r1, r0, 10
		addi r2, r0, 0
loop:
		add r2, r2, r1
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`)
	if cpu.Regs[2] != 55 {
		t.Fatalf("sum = %d, want 55", cpu.Regs[2])
	}
}

func TestMemoryAccess(t *testing.T) {
	cpu := run(t, `
		li r1, 0x100
		li r2, 0xCAFEBABE
		sw r2, 0(r1)
		lw r3, 0(r1)
		lh r4, 0(r1)
		lhu r5, 0(r1)
		lb r6, 3(r1)
		lbu r7, 3(r1)
		sb r2, 8(r1)
		lw r8, 8(r1)
		halt
	`)
	if cpu.Regs[3] != 0xCAFEBABE {
		t.Errorf("lw: %#x", cpu.Regs[3])
	}
	if cpu.Regs[4] != 0xFFFFBABE {
		t.Errorf("lh: %#x", cpu.Regs[4])
	}
	if cpu.Regs[5] != 0x0000BABE {
		t.Errorf("lhu: %#x", cpu.Regs[5])
	}
	if cpu.Regs[6] != 0xFFFFFFCA {
		t.Errorf("lb: %#x", cpu.Regs[6])
	}
	if cpu.Regs[7] != 0x000000CA {
		t.Errorf("lbu: %#x", cpu.Regs[7])
	}
	if cpu.Regs[8] != 0x000000BE {
		t.Errorf("sb/lw: %#x", cpu.Regs[8])
	}
}

func TestCallReturn(t *testing.T) {
	cpu := run(t, `
_start:
		li sp, 0x1000
		addi r1, r0, 20
		call double
		mv r5, r1
		halt
double:
		add r1, r1, r1
		ret
	`)
	if cpu.Regs[5] != 40 {
		t.Fatalf("r5 = %d, want 40", cpu.Regs[5])
	}
}

func TestR0IsZero(t *testing.T) {
	cpu := run(t, `
		addi r0, r0, 5
		mv r1, r0
		halt
	`)
	if cpu.Regs[1] != 0 || cpu.Regs[0] != 0 {
		t.Fatalf("r0 not hardwired to zero: r0=%d r1=%d", cpu.Regs[0], cpu.Regs[1])
	}
}

func TestAssertPassAndFail(t *testing.T) {
	pass := run(t, `
		addi r1, r0, 1
		ecall 2
		halt
	`)
	if pass.Stop != StopHalt {
		t.Fatalf("assert(1) should pass, got %v", pass.Stop)
	}
	fail := run(t, `
		addi r1, r0, 0
		ecall 2
		halt
	`)
	if fail.Stop != StopAssertFail {
		t.Fatalf("assert(0) should fail, got %v", fail.Stop)
	}
}

func TestConsoleOutput(t *testing.T) {
	cpu := run(t, `
		addi r1, r0, 72 ; 'H'
		ecall 3
		addi r1, r0, 105 ; 'i'
		ecall 3
		addi r1, r0, 42
		ecall 7
		halt
	`)
	if string(cpu.Console) != "Hi42" {
		t.Fatalf("console %q", cpu.Console)
	}
}

func TestFaults(t *testing.T) {
	t.Run("load-unmapped", func(t *testing.T) {
		cpu := run(t, `
			li r1, 0x20000000
			lw r2, 0(r1)
		`)
		if cpu.Stop != StopFault {
			t.Fatalf("stop %v", cpu.Stop)
		}
		var fe *FaultError
		if !errors.As(cpu.Fault, &fe) {
			t.Fatalf("fault type %T", cpu.Fault)
		}
	})
	t.Run("illegal-instruction", func(t *testing.T) {
		cpu := run(t, `.word 0xFFFFFFFF`)
		if cpu.Stop != StopFault {
			t.Fatalf("stop %v", cpu.Stop)
		}
	})
	t.Run("fetch-out-of-ram", func(t *testing.T) {
		cpu := run(t, `
			li r1, 0x30000000
			jalr r0, r1, 0
		`)
		if cpu.Stop != StopFault {
			t.Fatalf("stop %v", cpu.Stop)
		}
	})
	t.Run("mmio-without-device", func(t *testing.T) {
		cpu := run(t, `
			li r1, 0x40000000
			lw r2, 0(r1)
		`)
		if cpu.Stop != StopFault {
			t.Fatalf("stop %v", cpu.Stop)
		}
	})
}

// fakeMMIO is a trivial device: reads return the register address,
// writes are recorded.
type fakeMMIO struct {
	writes map[uint32]uint32
}

func (f *fakeMMIO) ReadMMIO(addr uint32, size int) (uint32, error) {
	return addr & 0xFFFF, nil
}

func (f *fakeMMIO) WriteMMIO(addr uint32, size int, val uint32) error {
	if f.writes == nil {
		f.writes = make(map[uint32]uint32)
	}
	f.writes[addr] = val
	return nil
}

func TestMMIOForwarding(t *testing.T) {
	p, err := asm.Assemble(`
		li r1, 0x40000010
		lw r2, 0(r1)
		li r3, 77
		sw r3, 4(r1)
		halt
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := &fakeMMIO{}
	cpu := New(Config{}, dev)
	if err := cpu.Load(p); err != nil {
		t.Fatal(err)
	}
	if got := runToStop(cpu); got != StopHalt {
		t.Fatalf("stop %v (fault %v)", got, cpu.Fault)
	}
	if cpu.Regs[2] != 0x10 {
		t.Errorf("MMIO read r2 = %#x", cpu.Regs[2])
	}
	if dev.writes[0x40000014] != 77 {
		t.Errorf("MMIO write: %v", dev.writes)
	}
}

func TestInterrupts(t *testing.T) {
	// Vector table at 0xFC0; IRQ 2 handler increments r5 then MRETs.
	src := `
_start:
		la r1, handler
		li r2, 0xFC8        ; vector slot for IRQ 2
		sw r1, 0(r2)
		addi r5, r0, 0
wait:
		beq r5, r0, wait
		halt
handler:
		addi r5, r5, 1
		mret
	`
	p, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(Config{}, nil)
	if err := cpu.Load(p); err != nil {
		t.Fatal(err)
	}
	// Run a few instructions, then raise the IRQ.
	for i := 0; i < 20; i++ {
		cpu.Step()
	}
	cpu.RaiseIRQ(2)
	if got := runToStop(cpu); got != StopHalt {
		t.Fatalf("stop %v (fault %v, pc %#x)", got, cpu.Fault, cpu.PC)
	}
	if cpu.Regs[5] != 1 {
		t.Fatalf("handler ran %d times, want 1", cpu.Regs[5])
	}
}

func TestInterruptAtomicity(t *testing.T) {
	// Two IRQs raised while in a handler: the second must wait until
	// after MRET.
	src := `
_start:
		la r1, handler
		li r2, 0xFC0
		sw r1, 0(r2)
		sw r1, 4(r2)
		addi r5, r0, 0
wait:
		addi r6, r6, 1
		slti r7, r6, 50
		bne r7, r0, wait
		halt
handler:
		addi r5, r5, 1
		; While in the handler, InHandler should block nested dispatch.
		mret
	`
	p, err := asm.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(Config{}, nil)
	if err := cpu.Load(p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		cpu.Step()
	}
	cpu.RaiseIRQ(0)
	cpu.RaiseIRQ(1)
	// Step into the first handler: one dispatch only.
	cpu.Step() // dispatch IRQ0 + first handler inst
	if !cpu.InHandler {
		t.Fatal("should be in handler")
	}
	if cpu.PendingIRQs() != 2 {
		t.Fatalf("pending %#x, want IRQ1 still pending", cpu.PendingIRQs())
	}
	if got := runToStop(cpu); got != StopHalt {
		t.Fatalf("stop %v", got)
	}
	if cpu.Regs[5] != 2 {
		t.Fatalf("handlers ran %d times, want 2", cpu.Regs[5])
	}
}

func TestResetClearsState(t *testing.T) {
	cpu := run(t, `
		addi r1, r0, 9
		halt
	`)
	cpu.Reset()
	if cpu.Regs[1] != 0 || cpu.PC != 0 || cpu.Stop != StopNone || cpu.Cycles != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestOnEcallHook(t *testing.T) {
	p, err := asm.Assemble(`
		ecall 1
		halt
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(Config{}, nil)
	if err := cpu.Load(p); err != nil {
		t.Fatal(err)
	}
	called := false
	cpu.OnEcall = func(c *CPU, service int32) bool {
		if service == isa.EcallMakeSymbolic {
			called = true
			return true
		}
		return false
	}
	runToStop(cpu)
	if !called {
		t.Fatal("OnEcall hook not invoked")
	}
}

func TestShiftEdgeCases(t *testing.T) {
	cpu := run(t, `
		addi r1, r0, 1
		addi r2, r0, 40
		sll r3, r1, r2   ; shift >= 32 -> 0
		li r4, 0x80000000
		srl r5, r4, r2   ; -> 0
		sra r6, r4, r2   ; -> all ones
		halt
	`)
	if cpu.Regs[3] != 0 {
		t.Errorf("sll overflow: %#x", cpu.Regs[3])
	}
	if cpu.Regs[5] != 0 {
		t.Errorf("srl overflow: %#x", cpu.Regs[5])
	}
	if cpu.Regs[6] != 0xFFFFFFFF {
		t.Errorf("sra overflow: %#x", cpu.Regs[6])
	}
}

func TestDivRemEdgeCases(t *testing.T) {
	cpu := run(t, `
		addi r1, r0, 100
		addi r2, r0, 0
		divu r3, r1, r2  ; -> all ones
		remu r4, r1, r2  ; -> 100
		addi r5, r0, 7
		divu r6, r1, r5  ; -> 14
		remu r7, r1, r5  ; -> 2
		halt
	`)
	if cpu.Regs[3] != 0xFFFFFFFF {
		t.Errorf("div0: %#x", cpu.Regs[3])
	}
	if cpu.Regs[4] != 100 {
		t.Errorf("rem0: %d", cpu.Regs[4])
	}
	if cpu.Regs[6] != 14 || cpu.Regs[7] != 2 {
		t.Errorf("div/rem: %d %d", cpu.Regs[6], cpu.Regs[7])
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cpu := run(t, `
		addi r1, r0, 5
		li r2, 0x300
		sw r1, 0(r2)
		halt
	`)
	snap := cpu.Snapshot()
	// Mutate everything.
	cpu.Reset()
	if cpu.Regs[1] != 0 {
		t.Fatal("reset failed")
	}
	cpu.RestoreSnapshot(snap)
	if cpu.Regs[1] != 5 || cpu.PC != snap.PC || cpu.Stop != StopNone {
		t.Fatalf("restore: r1=%d pc=%#x stop=%v", cpu.Regs[1], cpu.PC, cpu.Stop)
	}
	v, err := cpu.ReadMem(0x300, 4)
	if err != nil || v != 5 {
		t.Fatalf("memory not restored: %d %v", v, err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	cpu := run(t, `
		addi r1, r0, 1
		halt
	`)
	snap := cpu.Snapshot()
	if err := cpu.WriteMem(0x500, 1, 0xAA); err != nil {
		t.Fatal(err)
	}
	if snap.Mem[0x500] == 0xAA {
		t.Fatal("snapshot aliases live memory")
	}
}

// TestAccessAtTopOfAddressSpace covers the last 8 addresses: an access
// that runs past 0xFFFFFFFF must fault, never wrap into a window. With
// RAM at 0 (the default) that wrap used to pass the range check and
// index Mem with the wild address.
func TestAccessAtTopOfAddressSpace(t *testing.T) {
	const top = 0xFFFF0000
	layouts := []struct {
		name   string
		cfg    Config
		mapped bool // the last 64 KiB are RAM or MMIO
		ram    bool
	}{
		{"ram-at-0", Config{}, false, false},
		{"ram-at-top", Config{RAMBase: top, RAMSize: 1 << 16}, true, true},
		{"mmio-at-top", Config{MMIOBase: top, MMIOSize: 1 << 16}, true, false},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			cpu := New(l.cfg, &fakeMMIO{})
			if l.ram {
				// Every 4-byte window over 0x04 bytes decodes (add r0, ...).
				for a := uint32(0xFFFFFFF0); a != 0; a++ {
					if err := cpu.WriteMem(a, 1, 0x04); err != nil {
						t.Fatal(err)
					}
				}
			}
			for addr := uint32(0xFFFFFFF8); addr != 0; addr++ {
				for _, size := range []int{1, 2, 4} {
					fits := l.mapped && uint64(addr)+uint64(size) <= 1<<32
					if _, err := cpu.ReadMem(addr, size); (err == nil) != fits {
						t.Errorf("load  %#x size %d: err %v, fits %v", addr, size, err, fits)
					}
					if err := cpu.WriteMem(addr, size, 0x04040404); (err == nil) != fits {
						t.Errorf("store %#x size %d: err %v, fits %v", addr, size, err, fits)
					}
				}
				cpu.Stop, cpu.Fault, cpu.PC = StopNone, nil, addr
				fits := l.ram && uint64(addr)+4 <= 1<<32
				if ok := cpu.Step(); ok != fits || (cpu.Stop == StopFault) == fits {
					t.Errorf("fetch %#x: stepped %v, stop %v (%v), fits %v", addr, ok, cpu.Stop, cpu.Fault, fits)
				}
			}
		})
	}
}
