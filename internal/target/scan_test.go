package target

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hardsnap/internal/bus"
	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/sim"
	"hardsnap/internal/testseed"
	"hardsnap/internal/vtime"
)

// useEngine makes every simulator built until the test ends run on
// kind, through the process default sim.DefaultEngine. No test
// in this package runs in parallel, so the switch cannot leak into
// another test.
func useEngine(t *testing.T, kind sim.EngineKind) {
	prev := sim.DefaultEngine.Swap(int32(kind))
	t.Cleanup(func() { sim.DefaultEngine.Store(prev) })
}

// forceNetlistShift puts every peripheral of t on the netlist shift,
// as if its scan chain had no proof.
func (t *Target) forceNetlistShift() {
	for _, inst := range t.order {
		inst.scan.proof = errors.New("forced onto the netlist shift")
	}
}

// TestQuickScanSaveMatchesFabric checks the copied scan save and
// restore against two oracles: the simulator's own state, and a twin
// target that moves the same state through the netlist shift. On every
// corpus peripheral and under both RTL engines, after any register
// write/clock script a scan Save equals the direct read of the fabric
// and the twin's Save, a scan Restore of it reads back the same, and
// both targets end with the same state, the same rdata, irq and
// scan_out, and the same virtual time. The twin clocks the netlist
// exactly once per chain bit on each save and restore; the proven
// target never clocks it.
func TestQuickScanSaveMatchesFabric(t *testing.T) {
	for _, kind := range []string{"gpio", "timer", "crc32", "uart", "spi", "aes128", "regfile"} {
		for _, engine := range []sim.EngineKind{sim.EngineCompiled, sim.EngineInterp} {
			t.Run(kind+"/"+engine.String(), func(t *testing.T) {
				useEngine(t, engine)
				cfg := PeriphConfig{Name: "p0", Periph: kind}
				copied := newFPGA(t, &vtime.Clock{}, false, cfg)
				netlist := newFPGA(t, &vtime.Clock{}, false, cfg)
				netlist.forceNetlistShift()
				if err := copied.order[0].scan.proof; err != nil {
					t.Fatalf("scan chain not proven: %v", err)
				}
				twins := []*Target{copied, netlist}
				clocks := make([]uint64, len(twins))
				ports := make([]bus.Port, len(twins))
				for i, tg := range twins {
					inst := tg.order[0]
					if _, compiled := inst.sim.EngineStats(); compiled != (engine == sim.EngineCompiled) {
						t.Fatalf("simulator compiled=%v, want engine %v", compiled, engine)
					}
					inst.sim.OnCycle = func(uint64) { clocks[i]++ }
					var err error
					if ports[i], err = tg.Port("p0"); err != nil {
						t.Fatal(err)
					}
				}
				chain := uint64(copied.order[0].design.StateBits())
				drive := func(script []byte) error {
					for i, tg := range twins {
						for j := 0; j+3 < len(script); j += 4 {
							off := uint32(script[j]%16) * 4
							if err := ports[i].WriteReg(off, uint32(script[j+1])<<8|uint32(script[j+2])); err != nil {
								return err
							}
							if err := tg.Advance(uint64(script[j+3] % 8)); err != nil {
								return err
							}
						}
					}
					return nil
				}
				// shifted checks that a save or restore clocked the
				// netlist once per chain bit on the twin and never on
				// the proven target, then that the twins agree.
				shifted := func(op string, before []uint64) bool {
					if got := clocks[0] - before[0]; got != 0 {
						t.Errorf("copied scan %s clocked %d cycles, want 0", op, got)
						return false
					}
					if got := clocks[1] - before[1]; got != chain {
						t.Errorf("netlist scan %s clocked %d cycles, chain is %d bits", op, got, chain)
						return false
					}
					a, b := copied.order[0], netlist.order[0]
					if ra, rb := copied.snapshotRaw(), netlist.snapshotRaw(); !reflect.DeepEqual(ra, rb) {
						t.Errorf("after %s the twins' fabrics differ:\ncopied  %v\nnetlist %v", op, ra.Get("p0"), rb.Get("p0"))
						return false
					}
					for _, id := range []int{a.pins.rdata, a.pins.irq, a.scan.out} {
						if va, vb := a.sim.PeekID(id), b.sim.PeekID(id); va != vb {
							t.Errorf("after %s %s is %#x on the copied target, %#x on the netlist one",
								op, a.design.Signals[id].Name, va, vb)
							return false
						}
					}
					if va, vb := copied.clock.Now(), netlist.clock.Now(); va != vb {
						t.Errorf("after %s virtual time is %v on the copied target, %v on the netlist one", op, va, vb)
						return false
					}
					return true
				}
				prop := func(script, after []byte) bool {
					if err := drive(script); err != nil {
						t.Error(err)
						return false
					}
					before := slices.Clone(clocks)
					saved := make([]State, len(twins))
					for i, tg := range twins {
						var err error
						if saved[i], err = tg.Save(); err != nil {
							t.Error(err)
							return false
						}
					}
					if !shifted("save", before) {
						return false
					}
					if !reflect.DeepEqual(saved[0], saved[1]) {
						t.Errorf("copied save differs from the netlist shift:\ncopied  %v\nnetlist %v", saved[0].Get("p0"), saved[1].Get("p0"))
						return false
					}
					if raw := copied.snapshotRaw(); !reflect.DeepEqual(saved[0], raw) {
						t.Errorf("scan save differs from the fabric:\nsave %v\nraw  %v", saved[0].Get("p0"), raw.Get("p0"))
						return false
					}
					if err := drive(after); err != nil {
						t.Error(err)
						return false
					}
					before = slices.Clone(clocks)
					for i, tg := range twins {
						if err := tg.Restore(saved[i]); err != nil {
							t.Error(err)
							return false
						}
					}
					if !shifted("restore", before) {
						return false
					}
					if raw := copied.snapshotRaw(); !reflect.DeepEqual(saved[0], raw) {
						t.Errorf("scan restore left a different fabric:\nsaved %v\nraw   %v", saved[0].Get("p0"), raw.Get("p0"))
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
		s, err := sim.New(tc.design)
		if err != nil {
			t.Fatal(err)
		}
		inst := &periphInst{cfg: PeriphConfig{Name: "dev0"}, design: tc.design, sim: s}
		err = inst.resolve(tc.layout, true)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "peripheral dev0") || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: resolve error %v, want one naming peripheral dev0 and %s", tc.name, err, tc.want)
		}
	}
}

// BenchmarkSnapshotFPGAScanNetlist is the root package's
// BenchmarkSnapshotFPGAScan with the copy turned off: each save and
// restore clocks the netlist once per chain bit, as a peripheral whose
// shift is not proven does. The virtual time is the same on both.
func BenchmarkSnapshotFPGAScanNetlist(b *testing.B) {
	for _, kind := range []string{"gpio", "timer", "uart", "aes128"} {
		b.Run(kind, func(b *testing.B) {
			clock := &vtime.Clock{}
			tg, err := NewFPGA("t", clock, []PeriphConfig{{Name: "p", Periph: kind}}, false)
			if err != nil {
				b.Fatal(err)
			}
			tg.forceNetlistShift()
			if err := tg.Advance(20); err != nil {
				b.Fatal(err)
			}
			before := clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := tg.Save()
				if err != nil {
					b.Fatal(err)
				}
				if err := tg.Restore(st); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64((clock.Now()-before).Nanoseconds())/float64(b.N), "vt-ns/op")
		})
	}
}
