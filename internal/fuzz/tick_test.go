package fuzz

import (
	"bytes"
	"testing"
	"testing/quick"

	"hardsnap/internal/core"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/testseed"
)

// uartIRQFirmware transmits up to three input bytes over the UART's
// loopback; the RX interrupt handler pops and tallies them. When each
// interrupt lands relative to the wait loop decides the retired
// instruction count, so any drift in the tick shows.
const uartIRQFirmware = `
_start:
		la r1, on_rx
		li r2, 0xFC0       ; vector for IRQ 0
		sw r1, 0(r2)
		li r8, 0x40000000
		addi r4, r0, 3     ; loopback + irq_en_rx
		sw r4, 8(r8)
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		li r7, 0x800
		lbu r10, 0(r7)
		andi r10, r10, 3   ; bytes to send
		addi r11, r0, 0
next:
		beq r11, r10, done
		addi r11, r11, 1
		add r12, r7, r11
		lbu r4, 0(r12)
		sw r4, 0(r8)       ; transmit
wait:
		bne r14, r11, wait ; the handler counts received bytes
		j next
done:
		mv r1, r13
		ecall 7            ; sum of the bytes received
		mv r1, r14
		ecall 7
		halt
on_rx:
		lw r9, 0(r8)       ; pop the byte (drops the irq line)
		add r13, r13, r9
		addi r14, r14, 1
		mret
`

// timerIRQFirmware arms an auto-reloading timer with an input-derived
// period and spins an input-derived time; the compare interrupt's
// handler counts expiries.
const timerIRQFirmware = `
_start:
		la r1, on_tick
		li r2, 0xFC0       ; vector for IRQ 0
		sw r1, 0(r2)
		li r8, 0x40000000
		li r1, 0x800
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		li r7, 0x800
		lbu r4, 0(r7)
		andi r4, r4, 63
		addi r4, r4, 4
		sw r4, 0(r8)       ; LOAD: period 4..67 cycles
		addi r4, r0, 7     ; enable + irq_en + auto-reload
		sw r4, 8(r8)
		lbu r6, 1(r7)
		addi r6, r6, 1
spin:
		addi r6, r6, -1
		bne r6, r0, spin
		sw r0, 8(r8)       ; stop the timer
		mv r1, r14
		ecall 7            ; expiries taken
		halt
on_tick:
		addi r5, r0, 1
		sw r5, 12(r8)      ; clear expired
		addi r14, r14, 1
		mret
`

// TestFuzzExecMatchesReplay pins the one hardware tick: the fuzz
// worker's exec loop and core's concrete run loop, given the same
// input on interrupt-driven firmware, must retire the same
// instructions against the same hardware cycles and take the same
// interrupts. A change to core.Rig.Tick (temporal decoupling, say)
// has to keep this bit-identical.
func TestFuzzExecMatchesReplay(t *testing.T) {
	const budget = 10_000 // ReplayVector's budget for a zero-step state
	for _, tc := range []struct {
		name, src, periph string
	}{
		{"uart-loopback", uartIRQFirmware, "uart"},
		{"timer-compare", timerIRQFirmware, "timer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := mustAssembleFuzz(t, tc.src)
			periphs := []target.PeriphConfig{{Name: "dev0", Periph: tc.periph}}
			a, err := core.SetupProgram(core.SetupConfig{Peripherals: periphs}, prog)
			if err != nil {
				t.Fatal(err)
			}
			irqsSeen := 0
			prop := func(in [4]byte) bool {
				w, err := newWorker(0, testCampaign(Config{
					Program: prog, Peripherals: periphs, InputLen: len(in), MaxStepsPerExec: budget,
				}))
				if err != nil {
					t.Fatal(err)
				}
				w.setInput(in[:])
				stop, pc, err := w.execOne()
				if err != nil {
					t.Fatal(err)
				}
				res, err := a.ReplayVector(&symexec.State{}, map[uint32][]byte{1: in[:]})
				if err != nil {
					t.Fatal(err)
				}
				irqsSeen += res.IRQs
				cycles := w.rig.Target.Stats().Cycles
				if stop != res.Stop || pc != res.PC || !bytes.Equal(w.cpu.Console, res.Console) ||
					w.cpu.Cycles != res.Instructions || cycles != res.Cycles || w.irqsThisExec != res.IRQs {
					t.Logf("input %x: fuzz stop=%v pc=%#x console=%q instr=%d cycles=%d irqs=%d",
						in, stop, pc, w.cpu.Console, w.cpu.Cycles, cycles, w.irqsThisExec)
					t.Logf("input %x: replay stop=%v pc=%#x console=%q instr=%d cycles=%d irqs=%d",
						in, res.Stop, res.PC, res.Console, res.Instructions, res.Cycles, res.IRQs)
					return false
				}
				return true
			}
			if err := quick.Check(prop, testseed.Quick(t, 40)); err != nil {
				t.Fatal(err)
			}
			if irqsSeen == 0 {
				t.Fatal("no interrupt was ever delivered: the property checked nothing")
			}
		})
	}
}
