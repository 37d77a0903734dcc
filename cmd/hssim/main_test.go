package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hardsnap/internal/remote"
	"hardsnap/internal/target"
)

// connect dials the listener and performs the protocol handshake.
func connect(t *testing.T, ln net.Listener) *remote.TargetClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Connect(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestServeCorpusPeripheralOverTCP(t *testing.T) {
	// Run the server in a goroutine on an ephemeral port; we cannot
	// easily learn the port from run(), so build the pieces like run()
	// does but with a pre-made listener.
	done := make(chan error, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- serveOn(ln, "gpio", "", "", false, target.FaultSchedule{}) }()

	c := connect(t, ln)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	port, err := c.Port("dev0")
	if err != nil {
		t.Fatal(err)
	}
	if err := port.WriteReg(0, 0x77); err != nil {
		t.Fatal(err)
	}
	v, err := port.ReadReg(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x77 {
		t.Fatalf("readback %#x", v)
	}
	if err := c.Advance(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Cycles; got != 10 {
		t.Fatalf("advance reached the target with %d cycles, want 10", got)
	}
	c.Close()
	ln.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestServeCustomSource(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "d.v")
	verilog := `
module dev (
  input wire clk, input wire rst, input wire sel, input wire wen,
  input wire [7:0] addr, input wire [31:0] wdata,
  output reg [31:0] rdata, output wire irq
);
  reg [31:0] r;
  assign irq = 1'b0;
  always @(*) rdata = r;
  always @(posedge clk)
    if (rst) r <= 0;
    else if (sel && wen) r <= wdata;
endmodule
`
	if err := os.WriteFile(src, []byte(verilog), 0o644); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serveOn(ln, "", src, "dev", true, target.FaultSchedule{}) }()
	c := connect(t, ln)
	if c.Kind() != "fpga" {
		t.Fatalf("target kind %q, want fpga", c.Kind())
	}
	port, err := c.Port("dev0")
	if err != nil {
		t.Fatal(err)
	}
	if err := port.WriteReg(0, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := port.ReadReg(0); v != 42 {
		t.Fatalf("readback %d", v)
	}
	c.Close()
	ln.Close()
	<-done
}

func TestServeWithFaultInjection(t *testing.T) {
	// The server-side fault injector drops and corrupts frames; a
	// retrying, redialing client must still complete every transaction.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	sched := target.FaultSchedule{Seed: 5, DropRate: 0.2, CorruptRate: 0.1}
	go func() { done <- serveOn(ln, "gpio", "", "", false, sched) }()

	c := connect(t, ln)
	c.Dial = func() (net.Conn, error) {
		return net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	}
	c.Timeout = 100 * time.Millisecond
	port, err := c.Port("dev0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := port.WriteReg(0, uint32(0x100+i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		v, err := port.ReadReg(0)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if v != uint32(0x100+i) {
			t.Fatalf("readback %d: %#x", i, v)
		}
	}
	if c.WireStats().Retransmits == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	c.Close()
	ln.Close()
	// Connections the schedule desynchronized ended with header errors;
	// serveOn reports them, which is not a failure of this test.
	<-done
}

func TestServeV3ClientFullSurface(t *testing.T) {
	// Beyond register traffic: snapshot save/restore over the wire.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serveOn(ln, "gpio", "", "", false, target.FaultSchedule{}) }()

	c := connect(t, ln)
	port, err := c.Port("dev0")
	if err != nil {
		t.Fatal(err)
	}
	if err := port.WriteReg(0, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(4); err != nil {
		t.Fatal(err)
	}
	st, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	if err := port.WriteReg(0, 0x1); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(st); err != nil {
		t.Fatal(err)
	}
	v, err := port.ReadReg(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xBEEF {
		t.Fatalf("restored readback %#x, want 0xBEEF", v)
	}
	c.Close()
	ln.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("", "", "", "127.0.0.1:0", false, target.FaultSchedule{}); err == nil {
		t.Fatal("missing -periph/-source must fail")
	}
}
