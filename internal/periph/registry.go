package periph

import (
	"fmt"

	"hardsnap/internal/rtl"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/verilog"
)

// Spec describes one corpus peripheral.
type Spec struct {
	// Name is the registry key.
	Name string
	// Top is the Verilog top module implementing the register port.
	Top string
	// Description summarizes the block for documentation output.
	Description string
	// HasIRQ reports whether the block drives its irq output.
	HasIRQ bool
	// Params lists supported parameters with defaults (nil if none).
	Params map[string]uint64
	// source returns the Verilog text.
	source func() string
}

// Source returns the peripheral's Verilog source.
func (s Spec) Source() string { return s.source() }

// Parse returns a freshly parsed AST of the peripheral (safe to
// mutate, e.g. by the scan-chain instrumenter).
func (s Spec) Parse() (*verilog.SourceFile, error) {
	f, err := verilog.Parse(s.source())
	if err != nil {
		return nil, fmt.Errorf("periph %s: %w", s.Name, err)
	}
	return f, nil
}

var registry = []Spec{
	{
		Name: "gpio", Top: "gpio",
		Description: "general-purpose I/O, 64 state flops",
		source:      func() string { return GPIOSource },
	},
	{
		Name: "timer", Top: "timer",
		Description: "down-counting timer with auto-reload and IRQ",
		HasIRQ:      true,
		source:      func() string { return TimerSource },
	},
	{
		Name: "crc32", Top: "crc32",
		Description: "iterative CRC-32 offload engine (8 cycles/byte)",
		source:      func() string { return CRC32Source },
	},
	{
		Name: "uart", Top: "uart",
		Description: "serial transceiver with RX FIFO, loopback and IRQ",
		HasIRQ:      true,
		source:      func() string { return UARTSource },
	},
	{
		Name: "spi", Top: "spi",
		Description: "mode-0 SPI master with loopback and transfer IRQ",
		HasIRQ:      true,
		source:      func() string { return SPISource },
	},
	{
		Name: "aes128", Top: "aes128",
		Description: "AES-128 accelerator, round per cycle, done IRQ",
		HasIRQ:      true,
		source:      AESSource,
	},
	{
		Name: "regfile", Top: "regfile",
		Description: "parametric register file (snapshot-cost sweep)",
		Params:      map[string]uint64{"DEPTH": 16, "WIDTH": 32},
		source:      func() string { return RegFileSource },
	},
}

// Lookup finds a peripheral by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Build parses, optionally scan-chain-instruments, and elaborates a
// corpus peripheral. The returned report map is nil when instrument is
// false.
func Build(name string, params map[string]uint64, instrument bool) (*rtl.Design, map[string]*scanchain.Report, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("periph: unknown peripheral %q", name)
	}
	return BuildCustom(name, spec.Source(), spec.Top, params, instrument)
}

// BuildCustom parses, optionally instruments, and elaborates a
// user-provided Verilog peripheral. The module must expose the
// register-port convention documented in package bus. name is used in
// error messages only.
func BuildCustom(name, source, top string, params map[string]uint64, instrument bool) (*rtl.Design, map[string]*scanchain.Report, error) {
	f, err := verilog.Parse(source)
	if err != nil {
		return nil, nil, fmt.Errorf("periph %s: %w", name, err)
	}
	var reports map[string]*scanchain.Report
	if instrument {
		reports, err = scanchain.InstrumentAll(f, top, scanchain.Options{Params: params})
		if err != nil {
			return nil, nil, fmt.Errorf("periph %s: %w", name, err)
		}
	}
	d, err := rtl.Elaborate(f, top, params)
	if err != nil {
		return nil, nil, fmt.Errorf("periph %s: %w", name, err)
	}
	return d, reports, nil
}
