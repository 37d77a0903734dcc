package bench

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"time"

	"hardsnap/internal/core"
	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/rtl/bc"
	"hardsnap/internal/sim"
	"hardsnap/internal/target"
	"hardsnap/internal/verilog"
	"hardsnap/internal/vtime"
)

// e16BusySrc is the busy-logic workload: every node switches every
// cycle — a free-running LFSR fanning out through arithmetic, a case
// FSM and memory traffic — so activation cannot skip anything and the
// measured win is pure bytecode-vs-AST dispatch.
const e16BusySrc = `
module busy (
  input wire clk
);
  reg [31:0] lfsr;
  reg [31:0] acc;
  reg [1:0] st;
  reg [15:0] m [0:63];
  wire feedback = lfsr[31] ^ lfsr[21] ^ lfsr[1] ^ lfsr[0];
  wire [31:0] nxt = {lfsr[30:0], feedback};
  wire [31:0] mix = (nxt * 2654435761) ^ (acc >> 3);
  wire [15:0] folded = mix[31:16] ^ mix[15:0];
  wire [31:0] spread = {folded, folded ^ nxt[15:0]} + (acc << 1);
  always @(posedge clk) begin
    lfsr <= nxt == 0 ? 32'h1 : nxt;
    m[nxt[5:0]] <= folded;
    case (st)
      0: begin acc <= acc + mix; st <= 1; end
      1: begin acc <= acc ^ spread; st <= 2; end
      2: begin acc <= acc - nxt; st <= 3; end
      default: begin acc <= m[acc[5:0]] + acc; st <= 0; end
    endcase
  end
endmodule
`

// e16QuietPeriphs is the mostly-quiescent SoC: a handful of corpus
// peripherals sitting idle after power-on reset — the steady state of
// a firmware run that is executing instructions, not touching MMIO.
func e16QuietPeriphs(interp bool) []target.PeriphConfig {
	names := []string{"gpio", "timer", "uart", "crc32", "aes128"}
	cfgs := make([]target.PeriphConfig, len(names))
	for i, n := range names {
		cfgs[i] = target.PeriphConfig{
			Name:   fmt.Sprintf("p%d", i),
			Periph: n,
			Interp: interp,
		}
	}
	return cfgs
}

func e16BuildBusy(kind sim.EngineKind) (*sim.Simulator, error) {
	f, err := verilog.Parse(e16BusySrc)
	if err != nil {
		return nil, err
	}
	d, err := rtl.Elaborate(f, "busy", nil)
	if err != nil {
		return nil, err
	}
	s, err := sim.NewEngine(d, kind)
	if err != nil {
		return nil, err
	}
	// Non-zero seed so the LFSR actually runs.
	if err := s.Poke("lfsr", 0xACE1); err != nil {
		return nil, err
	}
	return s, s.EvalComb()
}

// e16Busy measures busy-logic cycles/sec on one engine.
func e16Busy(kind sim.EngineKind, cycles int) (float64, error) {
	s, err := e16BuildBusy(kind)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < cycles; i++ {
		if err := s.StepCycle(); err != nil {
			return 0, err
		}
	}
	return float64(cycles) / time.Since(start).Seconds(), nil
}

// e16Quiet measures idle-SoC cycles/sec through the full target path.
func e16Quiet(interp bool, cycles int) (float64, error) {
	tgt, err := target.NewSimulator("e16", &vtime.Clock{}, e16QuietPeriphs(interp))
	if err != nil {
		return 0, err
	}
	// Warm-up settle: let any post-reset activity drain before timing.
	if err := tgt.Advance(16); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := tgt.Advance(uint64(cycles)); err != nil {
		return 0, err
	}
	return float64(cycles) / time.Since(start).Seconds(), nil
}

// e16AES measures case-heavy cycles/sec: the corpus aes128 (20 S-box
// instances, a 256-label case each) encrypting back-to-back blocks
// through the target's register port, so the logic never goes idle.
// The last ciphertext is checked against crypto/aes.
func e16AES(interp bool, blocks int) (float64, error) {
	tgt, err := target.NewSimulator("e16", &vtime.Clock{},
		[]target.PeriphConfig{{Name: "aes0", Periph: "aes128", Interp: interp}})
	if err != nil {
		return 0, err
	}
	port, err := tgt.Port("aes0")
	if err != nil {
		return 0, err
	}
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	var pt, got, want [16]byte
	start := time.Now()
	for b := 0; b < blocks; b++ {
		pt = got // chain blocks so the data keeps changing
		for i := uint32(0); i < 4; i++ {
			if err := port.WriteReg(0x10+4*i, binary.BigEndian.Uint32(key[4*i:])); err != nil {
				return 0, err
			}
			if err := port.WriteReg(0x20+4*i, binary.BigEndian.Uint32(pt[4*i:])); err != nil {
				return 0, err
			}
		}
		if err := port.WriteReg(0x00, 1); err != nil {
			return 0, err
		}
		for polls := 0; ; polls++ {
			status, err := port.ReadReg(0x04)
			if err != nil {
				return 0, err
			}
			if status&2 != 0 {
				break
			}
			if polls > 64 {
				return 0, fmt.Errorf("aes128 never finished")
			}
			if err := tgt.Advance(1); err != nil {
				return 0, err
			}
		}
		for i := uint32(0); i < 4; i++ {
			v, err := port.ReadReg(0x30 + 4*i)
			if err != nil {
				return 0, err
			}
			binary.BigEndian.PutUint32(got[4*i:], v)
		}
	}
	wall := time.Since(start).Seconds()
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return 0, err
	}
	block.Encrypt(want[:], pt[:])
	if got != want {
		return 0, fmt.Errorf("aes128 ciphertext %x, crypto/aes says %x", got, want)
	}
	ts := tgt.Stats()
	return float64(ts.Cycles+ts.IOOps) / wall, nil
}

// e16Differential steps the busy design on both engines side by side
// and asserts cycle-exact snapshot identity.
func e16Differential(cycles int) error {
	si, err := e16BuildBusy(sim.EngineInterp)
	if err != nil {
		return err
	}
	sc, err := e16BuildBusy(sim.EngineCompiled)
	if err != nil {
		return err
	}
	for i := 0; i < cycles; i++ {
		if err := si.StepCycle(); err != nil {
			return err
		}
		if err := sc.StepCycle(); err != nil {
			return err
		}
	}
	a, b := si.Snapshot(), sc.Snapshot()
	for name, v := range a.Regs {
		if b.Regs[name] != v {
			return fmt.Errorf("differential: %s: interp %#x compiled %#x", name, v, b.Regs[name])
		}
	}
	for name, m := range a.Mems {
		for i, v := range m {
			if b.Mems[name][i] != v {
				return fmt.Errorf("differential: %s[%d]: interp %#x compiled %#x", name, i, v, b.Mems[name][i])
			}
		}
	}
	return nil
}

// e16Explore runs a small E11-style exploration and returns its
// outcome fingerprint — bugs, paths and virtual time hashed
// canonically — so E16 can prove engine choice never leaks into
// results.
func e16Explore(interp bool) (string, error) {
	a, err := core.Setup(core.SetupConfig{
		Firmware:    scalingWorkload(4, 40),
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Interp:      interp,
		Engine: core.Config{
			Mode:            core.ModeHardSnap,
			MaxInstructions: 2_000_000,
		},
	})
	if err != nil {
		return "", err
	}
	rep, err := a.Engine.Run()
	if err != nil {
		return "", err
	}
	return core.Fingerprint(rep), nil
}

// E16 regenerates the RTL-engine study: cycles/sec of the interpreter
// vs the compiled, event-driven bytecode engine on a busy-logic design
// and a mostly-quiescent SoC, gated on the issue's speedup floors
// (>=5x busy, >=20x quiescent) and on cycle-exact + fingerprint
// identity. The gates make `make bench-sim` a regression tripwire: a
// semantics bug or a dispatch-loop pessimization fails the experiment
// rather than silently shifting every other table.
func E16() (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "RTL engine: interpreter vs compiled bytecode with event-driven activation",
		Columns: []string{"workload", "engine", "cycles/sec", "speedup"},
	}

	const busyCycles = 150_000
	busyInterp, err := e16Busy(sim.EngineInterp, busyCycles)
	if err != nil {
		return nil, err
	}
	busyComp, err := e16Busy(sim.EngineCompiled, busyCycles)
	if err != nil {
		return nil, err
	}

	const quietCycles = 60_000
	quietInterp, err := e16Quiet(true, quietCycles)
	if err != nil {
		return nil, err
	}
	quietComp, err := e16Quiet(false, quietCycles)
	if err != nil {
		return nil, err
	}

	// No gate on the case-heavy row: it reports where case dispatch
	// stands, the floors above stay the regression tripwire.
	const aesBlocks = 1_500
	aesInterp, err := e16AES(true, aesBlocks/10)
	if err != nil {
		return nil, err
	}
	aesComp, err := e16AES(false, aesBlocks)
	if err != nil {
		return nil, err
	}

	row := func(workload, engine string, rate, base float64) {
		t.AddRow(workload, engine, fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.1fx", rate/base))
	}
	row("busy-logic", "interpreter", busyInterp, busyInterp)
	row("busy-logic", "compiled + activation", busyComp, busyInterp)
	row("quiescent SoC (5 periphs)", "interpreter", quietInterp, quietInterp)
	row("quiescent SoC (5 periphs)", "compiled + activation", quietComp, quietInterp)
	row("aes128 (case-heavy)", "interpreter", aesInterp, aesInterp)
	row("aes128 (case-heavy)", "compiled + activation", aesComp, aesInterp)

	t.AddMetric("busy_interp", busyInterp, "cycles/sec")
	t.AddMetric("busy_compiled", busyComp, "cycles/sec")
	t.AddMetric("busy_speedup", busyComp/busyInterp, "x")
	t.AddMetric("quiet_interp", quietInterp, "cycles/sec")
	t.AddMetric("quiet_compiled", quietComp, "cycles/sec")
	t.AddMetric("quiet_speedup", quietComp/quietInterp, "x")
	t.AddMetric("aes_interp", aesInterp, "cycles/sec")
	t.AddMetric("aes_compiled", aesComp, "cycles/sec")

	// Gate 1: speedup floors (host time: enforced by hsbench).
	t.AddFloor("busy-logic speedup", busyComp/busyInterp, 5)
	t.AddFloor("quiescent-SoC speedup", quietComp/quietInterp, 20)

	// Gate 2: cycle-exact identity on the busy design.
	if err := e16Differential(5_000); err != nil {
		return nil, fmt.Errorf("E16 gate: %w", err)
	}
	t.Notes = append(t.Notes,
		"differential gate: 5000 busy cycles, compiled vs interpreter snapshots bit-identical")

	// Gate 3: exploration outcomes are engine-independent.
	fpInterp, err := e16Explore(true)
	if err != nil {
		return nil, err
	}
	fpComp, err := e16Explore(false)
	if err != nil {
		return nil, err
	}
	if fpInterp != fpComp {
		return nil, fmt.Errorf("E16 gate: exploration fingerprint differs (interp %s, compiled %s)",
			fpInterp[:12], fpComp[:12])
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fingerprint gate: E11-style exploration identical on both engines (%s)", fpInterp[:12]))
	aesDesign, _, err := periph.Build("aes128", nil, false)
	if err != nil {
		return nil, err
	}
	aesProg, err := bc.Compile(aesDesign)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("aes128 compiles to %d comb ops + %d seq ops, %d case statements lowered to jump tables",
			aesProg.NumCombOps(), aesProg.NumSeqOps(), aesProg.NumCaseTables()))
	t.Notes = append(t.Notes,
		"wall-clock rates; virtual-time results are engine-independent by construction")
	return t, nil
}
