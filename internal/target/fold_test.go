package target

import (
	"fmt"
	"testing"

	"hardsnap/internal/periph"
	"hardsnap/internal/vtime"
)

// TestConstantFoldingAgrees: elaboration, the scan-chain pass and both
// RTL engines fold constants with one function, so a parameter
// expression means the same to each. Every design below builds and
// runs on the simulator and on the FPGA target, its scan chain is
// proven and survives a save and restore, and the scan pass sizes the
// register as elaboration does.
func TestConstantFoldingAgrees(t *testing.T) {
	const src = `
module dev #(parameter W = 8) (
  input wire clk, input wire rst, input wire sel, input wire wen,
  input wire [7:0] addr, input wire [31:0] wdata,
  output wire [31:0] rdata, output wire irq
);
  %s
  assign irq = 1'b0;
  assign rdata = %s;
  always @(posedge clk)
    if (rst) r <= 0;
    else if (sel && wen) r <= wdata;
endmodule
`
	for _, tc := range []struct {
		name, decl, rdata string
		width             uint   // of r
		want              uint32 // rdata after writing 0xBB
	}{
		{"a division in a part select", "reg [W-1:0] r;", "{24'd0, r[W/2-1:0]}", 8, 0xB},
		{"a conditional parameter", "localparam H = (W > 4) ? 3 : 1;\n  reg [H:0] r;", "{28'd0, r}", 4, 0xB},
		{"a bitwise parameter", "localparam H = W & 7;\n  reg [H:0] r;", "{31'd0, r}", 1, 1},
		{"a shift by 64", "localparam H = 1 << 64;\n  reg [H:0] r;", "{31'd0, r}", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			source := fmt.Sprintf(src, tc.decl, tc.rdata)
			d, reports, err := periph.BuildCustom("dev0", source, "dev", nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if r, _ := d.SignalByName("r"); r.Width != tc.width {
				t.Fatalf("r elaborates %d bits wide, want %d", r.Width, tc.width)
			}
			if el := reports["dev"].Elements; len(el) != 1 || el[0].Bits != tc.width {
				t.Fatalf("scan chain elements %+v, want r with %d bits", el, tc.width)
			}
			cfg := PeriphConfig{Name: "dev0", Source: source, Top: "dev"}
			sim, err := NewSimulator("sim", &vtime.Clock{}, []PeriphConfig{cfg})
			if err != nil {
				t.Fatal(err)
			}
			fpga, err := NewFPGA("fpga", &vtime.Clock{}, []PeriphConfig{cfg}, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := fpga.order[0].scan.proof; err != nil {
				t.Fatalf("scan chain not proven: %v", err)
			}
			for _, tg := range []*Target{sim, fpga} {
				p, err := tg.Port("dev0")
				if err != nil {
					t.Fatal(err)
				}
				read := func() uint32 {
					t.Helper()
					v, err := p.ReadReg(0)
					if err != nil {
						t.Fatal(err)
					}
					return v
				}
				if err := p.WriteReg(0, 0xBB); err != nil {
					t.Fatal(err)
				}
				if got := read(); got != tc.want {
					t.Fatalf("%s: rdata %#x, want %#x", tg.Kind(), got, tc.want)
				}
				s, err := tg.Save()
				if err != nil {
					t.Fatal(err)
				}
				if err := p.WriteReg(0, 0); err != nil {
					t.Fatal(err)
				}
				if err := tg.Restore(s); err != nil {
					t.Fatal(err)
				}
				if got := read(); got != tc.want {
					t.Fatalf("%s: rdata %#x after restore, want %#x", tg.Kind(), got, tc.want)
				}
			}
		})
	}
}
