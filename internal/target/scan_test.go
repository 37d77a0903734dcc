package target

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/sim"
	"hardsnap/internal/testseed"
	"hardsnap/internal/vtime"
)

// useEngine makes every simulator built until the test ends run on
// kind, through the process default that hssim -interp sets. No test
// in this package runs in parallel, so the switch cannot leak into
// another test.
func useEngine(t *testing.T, kind sim.EngineKind) {
	prev := sim.DefaultEngine()
	sim.SetDefaultEngine(kind)
	t.Cleanup(func() { sim.SetDefaultEngine(prev) })
}

// TestQuickScanSaveMatchesFabric checks the ID-resolved shift loop
// against a name-free oracle, the simulator's own state: on every
// corpus peripheral and under both RTL engines, after any register
// write/clock script a scan Save equals the direct read of the fabric,
// a scan Restore of it reads back the same, and each of them clocks
// the netlist exactly once per chain bit.
func TestQuickScanSaveMatchesFabric(t *testing.T) {
	for _, kind := range []string{"gpio", "timer", "crc32", "uart", "spi", "aes128", "regfile"} {
		for _, engine := range []sim.EngineKind{sim.EngineCompiled, sim.EngineInterp} {
			t.Run(kind+"/"+engine.String(), func(t *testing.T) {
				useEngine(t, engine)
				tg := newFPGA(t, &vtime.Clock{}, false, PeriphConfig{Name: "p0", Periph: kind})
				inst := tg.order[0]
				if _, compiled := inst.sim.EngineStats(); compiled != (engine == sim.EngineCompiled) {
					t.Fatalf("simulator compiled=%v, want engine %v", compiled, engine)
				}
				var clocks uint64
				inst.sim.OnCycle = func(uint64) { clocks++ }
				chain := uint64(inst.design.StateBits())
				port, err := tg.Port("p0")
				if err != nil {
					t.Fatal(err)
				}
				drive := func(script []byte) error {
					for i := 0; i+3 < len(script); i += 4 {
						off := uint32(script[i]%16) * 4
						if err := port.WriteReg(off, uint32(script[i+1])<<8|uint32(script[i+2])); err != nil {
							return err
						}
						if err := tg.Advance(uint64(script[i+3] % 8)); err != nil {
							return err
						}
					}
					return nil
				}
				prop := func(script, after []byte) bool {
					if err := drive(script); err != nil {
						t.Error(err)
						return false
					}
					before := clocks
					saved, err := tg.Save()
					if err != nil {
						t.Error(err)
						return false
					}
					if got := clocks - before; got != chain {
						t.Errorf("scan save clocked %d cycles, chain is %d bits", got, chain)
						return false
					}
					if raw := tg.snapshotRaw(); !reflect.DeepEqual(saved, raw) {
						t.Errorf("scan save differs from the fabric:\nsave %v\nraw  %v", saved["p0"], raw["p0"])
						return false
					}
					if err := drive(after); err != nil {
						t.Error(err)
						return false
					}
					before = clocks
					if err := tg.Restore(saved); err != nil {
						t.Error(err)
						return false
					}
					if got := clocks - before; got != chain {
						t.Errorf("scan restore clocked %d cycles, chain is %d bits", got, chain)
						return false
					}
					if raw := tg.snapshotRaw(); !reflect.DeepEqual(saved, raw) {
						t.Errorf("scan restore left a different fabric:\nsaved %v\nraw   %v", saved["p0"], raw["p0"])
						return false
					}
					return true
				}
				if err := quick.Check(prop, testseed.Quick(t, 8)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// pinTestSrc is a register-port peripheral with one 8-bit register;
// the tests below break one pin or chain position at a time.
const pinTestSrc = `
module dev (
  input wire clk, input wire rst, input wire sel, input wire wen,
  input wire [7:0] addr, input wire [31:0] wdata,
  output reg [31:0] rdata, output wire irq
);
  reg [7:0] r;
  assign irq = 1'b0;
  always @(*) rdata = {24'b0, r};
  always @(posedge clk)
    if (rst) r <= 0;
    else if (sel && wen) r <= wdata[7:0];
endmodule
`

// TestMissingBusPinFailsAtBuild: a peripheral whose register port
// lacks a pin the target drives or samples is refused by both target
// constructors with an error naming the peripheral and the pin, not
// on its first MMIO access or IRQ poll.
func TestMissingBusPinFailsAtBuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit *strings.Replacer
		want string
	}{
		{"irq", strings.NewReplacer("output wire irq", "output wire intr", "assign irq", "assign intr"), `no signal "irq"`},
		{"rdata", strings.NewReplacer("rdata", "data"), `no signal "rdata"`},
		{"wen", strings.NewReplacer("input wire wen,", "", "reg [7:0] r;", "reg [7:0] r; wire wen = 1'b1;"), `"wen" is not an input`},
	} {
		cfg := []PeriphConfig{{Name: "dev0", Source: tc.edit.Replace(pinTestSrc), Top: "dev"}}
		for _, build := range []func() (*Target, error){
			func() (*Target, error) { return NewSimulator("s", &vtime.Clock{}, cfg) },
			func() (*Target, error) { return NewFPGA("f", &vtime.Clock{}, cfg, false) },
		} {
			_, err := build()
			if err == nil || !strings.Contains(err.Error(), "peripheral dev0") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: build error %v, want one naming peripheral dev0 and %s", tc.name, err, tc.want)
			}
		}
	}
}

// TestUnresolvableScanChainFailsAtBuild: the scan pins and every chain
// position are resolved when the peripheral is built. The instrumenter
// always emits a consistent design, so the mismatches are made by
// pairing a chain layout with a design it was not made for.
func TestUnresolvableScanChainFailsAtBuild(t *testing.T) {
	scanned, reports, err := periph.BuildCustom("dev0", pinTestSrc, "dev", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := periph.BuildCustom("dev0", pinTestSrc, "dev", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := scanchain.Layout(reports, "dev")
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(*scanchain.BitRef)) []scanchain.BitRef {
		l := slices.Clone(layout)
		f(&l[3])
		return l
	}
	for _, tc := range []struct {
		name   string
		design *rtl.Design
		layout []scanchain.BitRef
		want   string
	}{
		{"consistent", scanned, layout, ""},
		{"no scan port", plain, layout, `scan port: no signal "scan_enable"`},
		{"unknown register", scanned, edit(func(r *scanchain.BitRef) { r.Name = "ghost" }), "no register bit ghost[3]"},
		{"bit past the width", scanned, edit(func(r *scanchain.BitRef) { r.Bit = 8 }), "no register bit r[8]"},
		{"unknown memory", scanned, edit(func(r *scanchain.BitRef) { r.IsMem = true }), "no memory bit r[0][3]"},
	} {
		inst := &periphInst{cfg: PeriphConfig{Name: "dev0"}, design: tc.design}
		err := inst.resolve(tc.layout, true)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "peripheral dev0") || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: resolve error %v, want one naming peripheral dev0 and %s", tc.name, err, tc.want)
		}
	}
}
