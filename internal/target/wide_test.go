package target

import (
	"fmt"
	"strings"
	"testing"

	"hardsnap/internal/vtime"
)

// TestWideConcatRefused: a concatenation or repeat wider than 64 bits,
// as an rvalue or as an lvalue, fails the target's build with an error
// naming the module and the line, on the simulator and on the FPGA;
// one of exactly 64 bits builds. No value of any RTL engine holds more
// than 64 bits.
func TestWideConcatRefused(t *testing.T) {
	const src = `module dev (
  input wire clk, input wire rst, input wire sel, input wire wen,
  input wire [7:0] addr, input wire [31:0] wdata,
  output wire [31:0] rdata, output wire irq
);
  reg [39:0] a;
  reg [39:0] b;
  wire [31:0] x = wdata;
  assign irq = 1'b0;
  %s
endmodule
`
	const line = 10 // of the %s line above
	for _, body := range []string{"assign rdata = {a[31:0], x};", "assign rdata = {2{x}};", "always @(posedge clk) {a[23:0], b} <= wdata;\n  assign rdata = 0;"} {
		cfg := []PeriphConfig{{Name: "dev0", Source: fmt.Sprintf(src, body), Top: "dev"}}
		if _, err := NewSimulator("sim", &vtime.Clock{}, cfg); err != nil {
			t.Fatalf("64 bits (%s) refused: %v", body, err)
		}
		if _, err := NewFPGA("fpga", &vtime.Clock{}, cfg, false); err != nil {
			t.Fatalf("64 bits (%s) refused on the FPGA: %v", body, err)
		}
	}
	for _, tc := range []struct{ name, body, want string }{
		{"a concatenation read", "assign rdata = {a, b};", "concatenation of 80 bits"},
		{"a repeat read", "assign rdata = {3{x}};", "repeat of 3 copies of 32 bits"},
		{"a concatenation written", "always @(posedge clk) {a, b} <= wdata;\n  assign rdata = 0;", "concatenation of 80 bits"},
		{"a repeat inside a wide concatenation", "assign rdata = {x, {1{x}}, 1'b0};", "concatenation of 65 bits"},
		{"an untaken arm", "assign rdata = 1 ? x : {3{x}};", "repeat of 3 copies of 32 bits"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := []PeriphConfig{{Name: "dev0", Source: fmt.Sprintf(src, tc.body), Top: "dev"}}
			for kind, build := range map[string]func() (*Target, error){
				"simulator": func() (*Target, error) { return NewSimulator("sim", &vtime.Clock{}, cfg) },
				"fpga":      func() (*Target, error) { return NewFPGA("fpga", &vtime.Clock{}, cfg, false) },
			} {
				_, err := build()
				if err == nil {
					t.Fatalf("%s: the design built", kind)
				}
				for _, want := range []string{fmt.Sprintf("module dev line %d", line), tc.want, "wider than 64"} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("%s: error %q does not name %q", kind, err, want)
					}
				}
			}
		})
	}
}
