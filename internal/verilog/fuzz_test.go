package verilog_test

import (
	"errors"
	"testing"

	"hardsnap/internal/periph"
	"hardsnap/internal/testseed"
	"hardsnap/internal/verilog"
)

// FuzzParse feeds the parser the peripheral corpus sources and their
// mutations. Whatever the text, Parse must not panic, must fail only
// with a *verilog.ParseError, and must not allocate beyond a small
// multiple of its input.
func FuzzParse(f *testing.F) {
	for _, name := range []string{"gpio", "timer", "crc32", "uart", "spi", "aes128", "regfile"} {
		spec, ok := periph.Lookup(name)
		if !ok {
			f.Fatalf("no corpus peripheral %q", name)
		}
		f.Add(spec.Source())
	}
	f.Fuzz(func(t *testing.T, src string) {
		var err error
		grew := testseed.Allocated(func() { _, err = verilog.Parse(src) })
		if limit := uint64(64<<10 + 512*len(src)); grew > limit {
			t.Fatalf("parsing %d bytes allocated %d, limit %d", len(src), grew, limit)
		}
		if err != nil {
			var pe *verilog.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
		}
	})
}
