package trace

import (
	"bytes"
	"strings"
	"testing"

	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/sim"
	"hardsnap/internal/target"
	"hardsnap/internal/verilog"
	"hardsnap/internal/vtime"
)

const counterSrc = `
module counter (
  input wire clk,
  input wire en,
  output reg [7:0] count
);
  always @(posedge clk)
    if (en) count <= count + 1;
endmodule
`

func buildSim(t *testing.T) *sim.Simulator {
	t.Helper()
	f, err := verilog.Parse(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(f, "counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVCDOutput(t *testing.T) {
	s := buildSim(t)
	var buf bytes.Buffer
	v, err := New(&buf, s, []string{"count", "en"})
	if err != nil {
		t.Fatal(err)
	}
	detach := v.Attach()
	s.SetInput("en", 1)
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := detach(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"$timescale 10ns $end",
		"$scope module counter $end",
		"$var wire 8",
		"$var wire 1",
		"$enddefinitions $end",
		"$dumpvars",
		"#0",
		"#2",
		"b101 ", // count reaches 5
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in VCD output:\n%s", want, out)
		}
	}
}

func TestVCDAllSignals(t *testing.T) {
	s := buildSim(t)
	var buf bytes.Buffer
	v, err := New(&buf, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.Attach()
	s.Run(1)
	if got := strings.Count(buf.String(), "$var"); got != len(s.Design().Signals) {
		t.Fatalf("vars %d, want %d", got, len(s.Design().Signals))
	}
}

func TestVCDUnknownSignal(t *testing.T) {
	s := buildSim(t)
	if _, err := New(&bytes.Buffer{}, s, []string{"ghost"}); err == nil {
		t.Fatal("unknown signal must fail")
	}
}

func TestVCDOnlyChangesRecorded(t *testing.T) {
	s := buildSim(t)
	var buf bytes.Buffer
	v, err := New(&buf, s, []string{"count"})
	if err != nil {
		t.Fatal(err)
	}
	v.Attach()
	// en = 0: nothing changes, so no timestamps after #0.
	s.Run(10)
	out := buf.String()
	if strings.Contains(out, "#5") {
		t.Fatalf("idle cycles must not be dumped:\n%s", out)
	}
}

func TestVCDDetach(t *testing.T) {
	s := buildSim(t)
	var buf bytes.Buffer
	v, err := New(&buf, s, []string{"count"})
	if err != nil {
		t.Fatal(err)
	}
	detach := v.Attach()
	s.SetInput("en", 1)
	s.Run(2)
	size := buf.Len()
	detach()
	s.Run(5)
	if buf.Len() != size {
		t.Fatal("tracer still recording after detach")
	}
}

func TestTraceViaSimulatorTarget(t *testing.T) {
	clock := &vtime.Clock{}
	tgt, err := target.NewSimulator("s", clock, []target.PeriphConfig{
		{Name: "t0", Periph: "timer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rtlSim, err := tgt.Simulator("t0")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	v, err := New(&buf, rtlSim, []string{"value", "irq"})
	if err != nil {
		t.Fatal(err)
	}
	v.Attach()

	port, _ := tgt.Port("t0")
	port.WriteReg(0x00, 5)
	port.WriteReg(0x08, 3)
	tgt.Advance(10)
	out := buf.String()
	if !strings.Contains(out, "$dumpvars") || strings.Count(out, "\n") < 10 {
		t.Fatalf("trace too small:\n%s", out)
	}

	// FPGA targets must refuse.
	fpga, err := target.NewFPGA("f", clock, []target.PeriphConfig{{Name: "t0", Periph: "timer"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fpga.Simulator("t0"); err != target.ErrNoVisibility {
		t.Fatalf("FPGA Simulator() should refuse, got %v", err)
	}
	_ = periph.Spec{}
}
