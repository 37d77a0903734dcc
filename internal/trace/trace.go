// Package trace implements value-change-dump (VCD) waveform tracing
// for the RTL simulator. Tracing is a simulator-target capability: it
// is what the paper's multi-target orchestration transfers *to* the
// simulator for — full execution traces that the FPGA cannot provide.
//
// The output is standard IEEE 1364 VCD, loadable in GTKWave and
// friends.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hardsnap/internal/rtl"
	"hardsnap/internal/sim"
)

// VCD streams value changes of selected signals to a writer.
type VCD struct {
	w       io.Writer
	sim     *sim.Simulator
	signals []*rtl.Signal
	ids     []string
	last    []uint64
	started bool
	err     error
}

// New creates a VCD tracer for the given signals (hierarchical names);
// an empty list traces every signal of the design. Call Attach to
// start recording.
func New(w io.Writer, s *sim.Simulator, signalNames []string) (*VCD, error) {
	design := s.Design()
	var signals []*rtl.Signal
	if len(signalNames) == 0 {
		signals = append(signals, design.Signals...)
		sort.Slice(signals, func(i, j int) bool { return signals[i].Name < signals[j].Name })
	} else {
		for _, name := range signalNames {
			sig, ok := design.SignalByName(name)
			if !ok {
				return nil, fmt.Errorf("trace: no signal named %q", name)
			}
			signals = append(signals, sig)
		}
	}
	v := &VCD{
		w:       w,
		sim:     s,
		signals: signals,
		ids:     make([]string, len(signals)),
		last:    make([]uint64, len(signals)),
	}
	for i := range signals {
		v.ids[i] = vcdID(i)
	}
	return v, nil
}

// vcdID produces the compact printable identifiers VCD uses.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var b strings.Builder
	for {
		b.WriteByte(alphabet[i%len(alphabet)])
		i /= len(alphabet)
		if i == 0 {
			return b.String()
		}
	}
}

// Attach writes the VCD header, dumps initial values and hooks the
// simulator so every subsequent cycle is recorded. It returns a
// detach function, which reports the first write error, if any.
func (v *VCD) Attach() func() error {
	v.header()
	v.dumpAll()
	prev := v.sim.OnCycle
	v.sim.OnCycle = func(cycle uint64) {
		if prev != nil {
			prev(cycle)
		}
		v.cycle(cycle)
	}
	return func() error {
		v.sim.OnCycle = prev
		return v.err
	}
}

func (v *VCD) printf(format string, args ...any) {
	if v.err != nil {
		return
	}
	if _, err := fmt.Fprintf(v.w, format, args...); err != nil {
		v.err = err
	}
}

func (v *VCD) header() {
	v.printf("$date HardSnap trace $end\n")
	v.printf("$version hardsnap %s target $end\n", v.sim.Design().Top)
	v.printf("$timescale 10ns $end\n")
	v.printf("$scope module %s $end\n", v.sim.Design().Top)
	for i, sig := range v.signals {
		name := strings.ReplaceAll(sig.Name, ".", "_")
		v.printf("$var wire %d %s %s $end\n", sig.Width, v.ids[i], name)
	}
	v.printf("$upscope $end\n$enddefinitions $end\n")
}

func (v *VCD) value(i int) uint64 {
	val, _ := v.sim.Peek(v.signals[i].Name)
	return val
}

func (v *VCD) emit(i int, val uint64) {
	sig := v.signals[i]
	if sig.Width == 1 {
		v.printf("%d%s\n", val&1, v.ids[i])
		return
	}
	v.printf("b%b %s\n", val, v.ids[i])
}

func (v *VCD) dumpAll() {
	v.printf("#0\n$dumpvars\n")
	for i := range v.signals {
		val := v.value(i)
		v.last[i] = val
		v.emit(i, val)
	}
	v.printf("$end\n")
	v.started = true
}

func (v *VCD) cycle(cycle uint64) {
	wroteTime := false
	for i := range v.signals {
		val := v.value(i)
		if val == v.last[i] {
			continue
		}
		if !wroteTime {
			v.printf("#%d\n", cycle)
			wroteTime = true
		}
		v.last[i] = val
		v.emit(i, val)
	}
}
