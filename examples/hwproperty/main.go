// Command hwproperty demonstrates hardware-side security properties:
// a Verilog assertion over the peripheral's *internal* registers is
// checked on every clock cycle while symbolic execution explores the
// firmware. The solver finds the exact input that drives the hardware
// into the forbidden state, and the offending path is replayed
// concretely with a VCD waveform trace for root-cause analysis —
// the paper's full workflow: detect peripheral misuse, generate the
// test vector, diagnose with full visibility.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"hardsnap"
	"hardsnap/internal/target"
	"hardsnap/internal/trace"
	"hardsnap/internal/vtime"
)

// The firmware is a small "motor controller": it accepts a speed
// command byte and programs the timer's reload value with
// 1000/speed-ish scaling. Command 0 makes the firmware program a zero
// reload with auto-reload enabled — a hardware configuration that
// would make the interrupt fire continuously (a classic peripheral
// misuse that locks up real systems).
const firmware = `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1            ; speed command (symbolic)
		lbu r4, 0(r1)

		li r8, 0x40000000  ; timer
		; the driver checks for "stop" (0xFF) but forgets that a zero
		; speed also produces a zero reload value
		addi r5, r0, 0xFF
		beq r4, r5, stopped
		slli r5, r4, 4     ; reload = speed << 4 (speed 0 => 0: the bug)
		sw r5, 0(r8)       ; LOAD
		addi r6, r0, 5
		sw r6, 8(r8)       ; CTRL = enable | auto-reload
		j done
stopped:
		sw r0, 8(r8)       ; disable
done:
		nop
		nop
		nop
		nop
		halt
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	analysis, err := hardsnap.Setup(hardssnapSetup())
	if err != nil {
		return err
	}
	rep, err := analysis.Engine.Run()
	if err != nil {
		return err
	}

	fmt.Printf("explored %d paths, %d hardware property violations\n",
		len(rep.Finished), rep.Stats.HWViolations)

	var offender *hardsnap.State
	for _, st := range rep.Finished {
		if st.Status == hardsnap.StatusAssertFail {
			offender = st
			break
		}
	}
	if offender == nil {
		return fmt.Errorf("expected a violating path")
	}
	fmt.Printf("violating path: %v\n", offender.Err)
	vec, ok := analysis.Exec.TestVector(offender)
	if !ok {
		return fmt.Errorf("no test vector")
	}
	fmt.Printf("generated test vector: speed command = %d\n", vec[1][0])

	// Root-cause analysis: replay the vector concretely on a fresh
	// simulator target with a VCD waveform of the timer internals.
	clock := &vtime.Clock{}
	tgt, err := target.NewSimulator("diag", clock, []target.PeriphConfig{
		{Name: "timer0", Periph: "timer"},
	})
	if err != nil {
		return err
	}
	rtlSim, err := tgt.Simulator("timer0")
	if err != nil {
		return err
	}
	var waveform bytes.Buffer
	vcd, err := trace.New(&waveform, rtlSim, []string{"value", "load", "ctrl", "expired", "irq"})
	if err != nil {
		return err
	}
	detach := vcd.Attach()

	port, err := tgt.Port("timer0")
	if err != nil {
		return err
	}
	reload := uint32(vec[1][0]) << 4
	port.WriteReg(0x00, reload)
	port.WriteReg(0x08, 5)
	tgt.Advance(8)
	detach()

	expired, _ := tgt.Peek("timer0", "expired")
	fmt.Printf("concrete replay: reload=%d, expired after 8 cycles: %v\n", reload, expired != 0)

	if err := os.WriteFile("hwproperty.vcd", waveform.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("waveform written to hwproperty.vcd (%d bytes, open with GTKWave)\n", waveform.Len())
	return nil
}

func hardssnapSetup() hardsnap.SetupConfig {
	return hardsnap.SetupConfig{
		Firmware: firmware,
		Peripherals: []hardsnap.PeriphConfig{
			{Name: "timer0", Periph: "timer"},
		},
		// The reload written to the timer is symbolic. Enumerate every
		// value it can take at the hardware boundary (255 of them: the
		// 0xFF command never reaches the write) instead of the default
		// one, or the zero that violates the property is never tried.
		Exec: hardsnap.ExecConfig{Policy: hardsnap.ConcretizeAll, MaxValues: 300},
		HWAssertions: []hardsnap.HWAssertion{
			// The motor must never be configured with a zero reload
			// while auto-reload is on: VALUE would wrap every cycle.
			{Periph: "timer0", Name: "no-zero-autoreload",
				Expr: "!((load == 0) && (ctrl == 3'b101))"},
		},
	}
}
