package hardsnap_test

import (
	"reflect"
	"strings"
	"testing"

	"hardsnap"
)

// TestPublicAPIQuickstart drives a full analysis through the facade.
func TestPublicAPIQuickstart(t *testing.T) {
	analysis, err := hardsnap.Setup(hardsnap.SetupConfig{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		addi r5, r0, 13
		bne r4, r5, ok
		abort
ok:
		halt`,
		Peripherals: []hardsnap.PeriphConfig{{Name: "timer0", Periph: "timer"}},
		Engine:      hardsnap.EngineConfig{Mode: hardsnap.ModeHardSnap},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := analysis.Engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	bugs := report.Bugs()
	if len(bugs) != 1 {
		t.Fatalf("bugs: %d", len(bugs))
	}
	if bugs[0].Model["sym1_0"] != 13 {
		t.Fatalf("model: %v", bugs[0].Model)
	}

	// The found bug replays concretely.
	res, err := analysis.Replay(bugs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced {
		t.Fatalf("replay: %v at %#x", res.Stop, res.PC)
	}
}

func TestPublicAPIInstrument(t *testing.T) {
	src := `
module reg8 (input wire clk, input wire [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d;
endmodule`
	out, reports, err := hardsnap.InstrumentVerilog(src, "reg8", hardsnap.InstrumentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "scan_enable") {
		t.Fatalf("no scan ports in output:\n%s", out)
	}
	if reports["reg8"].ChainBits != 8 {
		t.Fatalf("chain bits: %d", reports["reg8"].ChainBits)
	}
}

func TestPublicAPIPeripherals(t *testing.T) {
	specs := hardsnap.Peripherals()
	if len(specs) < 6 {
		t.Fatalf("corpus size: %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.Source() == "" {
			t.Errorf("peripheral %s has no source", s.Name)
		}
	}
	for _, want := range []string{"gpio", "timer", "uart", "spi", "crc32", "aes128", "regfile"} {
		if !names[want] {
			t.Errorf("missing corpus peripheral %q", want)
		}
	}
}

func TestPublicAPITransfer(t *testing.T) {
	// Assemble + fuzz through the facade.
	prog, err := hardsnap.Assemble(`
_start:
		ecall 6
		li r1, 0x800
		addi r2, r0, 2
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		addi r5, r0, 0x99
		bne r4, r5, ok
		abort
ok:
		halt`, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hardsnap.Fuzz(hardsnap.FuzzConfig{
		Program:  prog,
		Reset:    hardsnap.ResetSnapshot,
		MaxExecs: 500,
		InputLen: 2,
		Seeds:    [][]byte{{0x98, 0}},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Execs != 500 {
		t.Fatalf("execs: %d", res.Execs)
	}
}

// TestEncodeDecodeHWState round-trips a saved target state through the
// facade's byte form and checks that every corruption mode — payload
// bit, truncation, short header, magic, version — is an integrity
// error, never a decoded state.
func TestEncodeDecodeHWState(t *testing.T) {
	analysis, err := hardsnap.Setup(hardsnap.SetupConfig{
		Firmware:    "_start:\n\t\thalt",
		Peripherals: []hardsnap.PeriphConfig{{Name: "gpio0", Periph: "gpio"}, {Name: "aes0", Periph: "aes128"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	port, err := analysis.Target.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := port.WriteReg(0x00, 0x5A5A); err != nil {
		t.Fatal(err)
	}
	st, err := analysis.Target.Save()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := hardsnap.EncodeHWState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hardsnap.DecodeHWState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("encode/decode round trip diverged")
	}
	if err := analysis.Target.Restore(got); err != nil {
		t.Fatalf("restore of the decoded state: %v", err)
	}

	mutate := func(at int, v byte) []byte {
		out := append([]byte(nil), blob...)
		out[at] ^= v
		return out
	}
	for name, bad := range map[string][]byte{
		"payload bit":      mutate(len(blob)-1, 0x01),
		"truncation":       blob[:len(blob)-3],
		"truncated header": blob[:5],
		"empty":            nil,
		"magic":            mutate(0, 0xFF),
		"version":          mutate(4, 0x0A),
		"length":           mutate(5, 0x01),
		"crc":              mutate(9, 0x01),
	} {
		if st, err := hardsnap.DecodeHWState(bad); st != nil || !hardsnap.IsIntegrity(err) {
			t.Errorf("%s: DecodeHWState = %v, %v; want an integrity error", name, st, err)
		}
	}
}
