package periph

import (
	"testing"

	"hardsnap/internal/rtl"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/sim"
	"hardsnap/internal/verilog"
)

// AXIAdapterSource is an AXI4-Lite slave front-end that translates the
// five AXI channels (AW, W, B, AR, R) into HardSnap's single-cycle
// register-port convention. It is the test-level demonstration of the
// paper's modularity claim that "the remote interface and the memory
// bus abstraction can be easily replaced": any corpus peripheral can
// be wrapped behind a genuine valid/ready handshake interface without
// touching its RTL. Nothing shipped uses it.
//
// Protocol subset: 32-bit data, 8-bit addresses, no WSTRB (full-word
// writes), no protection bits, responses always OKAY. Write address
// and data may arrive in either order; the register write fires once
// both are latched.
const AXIAdapterSource = `
module axi2reg (
  input wire clk,
  input wire rst,

  // AXI4-Lite slave interface.
  input wire awvalid,
  output wire awready,
  input wire [7:0] awaddr,

  input wire wvalid,
  output wire wready,
  input wire [31:0] wdata_in,

  output reg bvalid,
  input wire bready,

  input wire arvalid,
  output wire arready,
  input wire [7:0] araddr,

  output reg rvalid,
  input wire rready,
  output reg [31:0] rdata_out,

  // Register-port master side (connect to a peripheral).
  output reg sel,
  output reg wen,
  output reg [7:0] addr,
  output reg [31:0] wdata,
  input wire [31:0] rdata
);
  // Write channel state.
  reg aw_got;
  reg w_got;
  reg [7:0] aw_addr_l;
  reg [31:0] w_data_l;

  assign awready = !aw_got && !bvalid;
  assign wready = !w_got && !bvalid;
  assign arready = !rvalid && !sel;

  always @(posedge clk) begin
    if (rst) begin
      aw_got <= 0;
      w_got <= 0;
      aw_addr_l <= 0;
      w_data_l <= 0;
      bvalid <= 0;
      rvalid <= 0;
      rdata_out <= 0;
      sel <= 0;
      wen <= 0;
      addr <= 0;
      wdata <= 0;
    end else begin
      // The register port idles after one pulse; read data is
      // captured at the pulse and only then presented on R (so a
      // same-cycle RREADY can never sample stale data).
      if (sel) begin
        if (!wen) begin
          rdata_out <= rdata;
          rvalid <= 1;
        end
        sel <= 0;
        wen <= 0;
      end

      // Latch write address/data beats.
      if (awvalid && awready) begin
        aw_got <= 1;
        aw_addr_l <= awaddr;
      end
      if (wvalid && wready) begin
        w_got <= 1;
        w_data_l <= wdata_in;
      end

      // Both beats present: issue the register write, raise B.
      if (aw_got && w_got && !bvalid) begin
        sel <= 1;
        wen <= 1;
        addr <= aw_addr_l;
        wdata <= w_data_l;
        bvalid <= 1;
        aw_got <= 0;
        w_got <= 0;
      end
      if (bvalid && bready)
        bvalid <= 0;

      // Read: one-pulse register read; R is raised by the capture
      // branch above.
      if (arvalid && arready) begin
        sel <= 1;
        wen <= 0;
        addr <= araddr;
      end
      if (rvalid && rready && !sel)
        rvalid <= 0;
    end
  end
endmodule
`

// AXIWrap returns Verilog for `top` wrapped behind the AXI4-Lite
// adapter, exposing the AXI channels at the boundary plus the wrapped
// peripheral's irq.
func AXIWrap(periphSource, periphTop string) string {
	return AXIAdapterSource + periphSource + `
module ` + periphTop + `_axi (
  input wire clk,
  input wire rst,
  input wire awvalid,
  output wire awready,
  input wire [7:0] awaddr,
  input wire wvalid,
  output wire wready,
  input wire [31:0] wdata_in,
  output wire bvalid,
  input wire bready,
  input wire arvalid,
  output wire arready,
  input wire [7:0] araddr,
  output wire rvalid,
  input wire rready,
  output wire [31:0] rdata_out,
  output wire irq
);
  wire p_sel;
  wire p_wen;
  wire [7:0] p_addr;
  wire [31:0] p_wdata;
  wire [31:0] p_rdata;

  axi2reg u_axi (
    .clk(clk), .rst(rst),
    .awvalid(awvalid), .awready(awready), .awaddr(awaddr),
    .wvalid(wvalid), .wready(wready), .wdata_in(wdata_in),
    .bvalid(bvalid), .bready(bready),
    .arvalid(arvalid), .arready(arready), .araddr(araddr),
    .rvalid(rvalid), .rready(rready), .rdata_out(rdata_out),
    .sel(p_sel), .wen(p_wen), .addr(p_addr), .wdata(p_wdata), .rdata(p_rdata)
  );

  ` + periphTop + ` u_dev (
    .clk(clk), .rst(rst),
    .sel(p_sel), .wen(p_wen), .addr(p_addr), .wdata(p_wdata),
    .rdata(p_rdata), .irq(irq)
  );
endmodule
`
}

// axiDev drives the AXI4-Lite wrapper with proper valid/ready
// handshakes (bounded waits so protocol bugs fail fast).
type axiDev struct {
	t *testing.T
	s *sim.Simulator
}

func openAXI(t *testing.T, periphName string) *axiDev {
	t.Helper()
	spec, ok := Lookup(periphName)
	if !ok {
		t.Fatalf("unknown periph %s", periphName)
	}
	src := AXIWrap(spec.Source(), spec.Top)
	f, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse wrapper: %v", err)
	}
	d, err := rtl.Elaborate(f, spec.Top+"_axi", nil)
	if err != nil {
		t.Fatalf("elaborate wrapper: %v", err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInput("rst", 1)
	s.StepCycle()
	s.SetInput("rst", 0)
	return &axiDev{t: t, s: s}
}

func (d *axiDev) waitHigh(sig string) {
	d.t.Helper()
	for i := 0; ; i++ {
		if i > 100 {
			d.t.Fatalf("timeout waiting for %s", sig)
		}
		if err := d.s.EvalComb(); err != nil {
			d.t.Fatal(err)
		}
		if v, _ := d.s.Peek(sig); v != 0 {
			return
		}
		d.s.StepCycle()
	}
}

// write performs a full AW/W/B transaction.
func (d *axiDev) write(addr, val uint32) {
	d.t.Helper()
	s := d.s
	s.SetInput("awvalid", 1)
	s.SetInput("awaddr", uint64(addr))
	s.SetInput("wvalid", 1)
	s.SetInput("wdata_in", uint64(val))
	s.SetInput("bready", 1)
	d.waitHigh("awready")
	d.waitHigh("wready")
	s.StepCycle() // both beats accepted
	s.SetInput("awvalid", 0)
	s.SetInput("wvalid", 0)
	d.waitHigh("bvalid")
	s.StepCycle() // B accepted
	s.SetInput("bready", 0)
	// Let the register-port pulse land in the peripheral.
	s.StepCycle()
}

// read performs a full AR/R transaction.
func (d *axiDev) read(addr uint32) uint32 {
	d.t.Helper()
	s := d.s
	s.SetInput("arvalid", 1)
	s.SetInput("araddr", uint64(addr))
	s.SetInput("rready", 1)
	d.waitHigh("arready")
	s.StepCycle() // AR accepted
	s.SetInput("arvalid", 0)
	d.waitHigh("rvalid")
	v, _ := s.Peek("rdata_out")
	s.StepCycle() // R accepted
	s.SetInput("rready", 0)
	return uint32(v)
}

func TestAXIWrappedTimer(t *testing.T) {
	d := openAXI(t, "timer")
	d.write(0x00, 500) // LOAD
	d.write(0x08, 1)   // enable
	v1 := d.read(0x04)
	if v1 == 0 || v1 > 500 {
		t.Fatalf("VALUE after enable: %d", v1)
	}
	v2 := d.read(0x04)
	if v2 >= v1 {
		t.Fatalf("timer not counting down over AXI: %d -> %d", v1, v2)
	}
	if got := d.read(0x00); got != 500 {
		t.Fatalf("LOAD readback %d", got)
	}
}

func TestAXIWrappedCRC(t *testing.T) {
	d := openAXI(t, "crc32")
	d.write(0x08, 1) // init
	for _, b := range []byte("123456789") {
		d.write(0x00, uint32(b))
		for d.read(0x0C)&1 == 1 {
		}
	}
	if got := d.read(0x04); got != 0xCBF43926 {
		t.Fatalf("CRC over AXI = %#x, want 0xCBF43926", got)
	}
}

func TestAXIWriteDataBeforeAddress(t *testing.T) {
	// AXI permits W before AW; the adapter must latch both orders.
	d := openAXI(t, "timer")
	s := d.s
	s.SetInput("wvalid", 1)
	s.SetInput("wdata_in", 77)
	s.SetInput("bready", 1)
	d.waitHigh("wready")
	s.StepCycle()
	s.SetInput("wvalid", 0)
	s.SetInput("awvalid", 1)
	s.SetInput("awaddr", 0x00)
	d.waitHigh("awready")
	s.StepCycle()
	s.SetInput("awvalid", 0)
	d.waitHigh("bvalid")
	s.StepCycle()
	s.SetInput("bready", 0)
	s.StepCycle()
	if got := d.read(0x00); got != 77 {
		t.Fatalf("LOAD = %d after reversed beats", got)
	}
}

func TestAXIWrapperInstrumentable(t *testing.T) {
	// The wrapped hierarchy (adapter + peripheral) scan-instruments
	// like any design: the chain threads both modules.
	spec, _ := Lookup("timer")
	f, err := verilog.Parse(AXIWrap(spec.Source(), spec.Top))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := scanchain.InstrumentAll(f, spec.Top+"_axi", scanchain.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reports["axi2reg"] == nil || reports["axi2reg"].ChainBits == 0 {
		t.Fatal("adapter not in the chain")
	}
	if reports["timer"] == nil || reports["timer"].ChainBits != 68 {
		t.Fatalf("wrapped peripheral chain: %+v", reports["timer"])
	}
	// And it still elaborates after instrumentation.
	if _, err := rtl.Elaborate(f, spec.Top+"_axi", nil); err != nil {
		t.Fatalf("instrumented wrapper elaborate: %v", err)
	}
}
