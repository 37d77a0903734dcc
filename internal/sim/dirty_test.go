package sim

import (
	"fmt"
	"reflect"
	"testing"

	"hardsnap/internal/rtl"
	"hardsnap/internal/verilog"
)

// dirtySrc has registers of three widths (one of them 64 bits), a
// memory, and inputs that feed both.
const dirtySrc = `
module dt (
  input wire clk,
  input wire en,
  input wire [7:0] din,
  input wire [2:0] waddr,
  output wire [15:0] dout
);
  reg [15:0] acc;
  reg [63:0] wide;
  reg [3:0] cnt;
  reg [7:0] mem [0:7];
  assign dout = acc ^ {8'b0, mem[waddr]};
  always @(posedge clk) begin
    if (en) begin
      acc <= acc + {8'b0, din};
      mem[waddr] <= din ^ {4'b0, cnt};
    end
    wide <= {wide[62:0], wide[63] ^ din[0]};
    cnt <= cnt + 1;
  end
endmodule
`

// Dirty-tracking script opcodes (one byte each, operands follow).
const (
	dPoke    = iota // reg, value: Poke a register
	dInput          // input, value: SetInputID
	dPokeMem        // word, value: PokeMem
	dStep           // n: 1..4 cycles
	dAnchor         // ClearDirty; the live state becomes the anchor
	dRemark         // k, value: write an already dirty element again
	dNumOps
)

// runDirtyScript drives twin simulators through the same script and
// returns a description of the first divergence, or "". At the end
// one twin restores the anchor through RestoreDirty and the other
// through Restore: the states and the bit counts must agree.
func runDirtyScript(kind EngineKind, script []byte) string {
	f, err := verilog.Parse(dirtySrc)
	if err != nil {
		return err.Error()
	}
	var twins [2]*Simulator
	for i := range twins {
		d, err := rtl.Elaborate(f, "dt", nil)
		if err != nil {
			return err.Error()
		}
		if twins[i], err = NewEngine(d, kind); err != nil {
			return err.Error()
		}
	}
	a, b := twins[0], twins[1]
	d := a.Design()
	regs, mem := d.Regs(), d.Memories[0]
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		c := script[0]
		script = script[1:]
		return c
	}
	value := func() uint64 { return uint64(next())<<56 | uint64(next())<<8 | uint64(next()) }
	anchor := a.Snapshot()
	for len(script) > 0 {
		switch next() % dNumOps {
		case dPoke:
			name, v := regs[int(next())%len(regs)].Name, value()
			for _, s := range twins {
				if err := s.Poke(name, v); err != nil {
					return err.Error()
				}
			}
		case dInput:
			id, v := d.Inputs[int(next())%len(d.Inputs)].ID, value()
			for _, s := range twins {
				s.SetInputID(id, v)
			}
		case dPokeMem:
			idx, v := uint(next())%mem.Depth, value()
			for _, s := range twins {
				if err := s.PokeMem(mem.Name, idx, v); err != nil {
					return err.Error()
				}
			}
		case dStep:
			n := uint64(next()%4) + 1
			for _, s := range twins {
				if err := s.Run(n); err != nil {
					return err.Error()
				}
			}
		case dAnchor:
			for _, s := range twins {
				s.ClearDirty()
			}
			anchor = a.Snapshot()
		case dRemark:
			k, v := int(next()), value()
			bits, sigs, mems := a.DirtyBits(), len(a.dirtySigs.ids), len(a.dirtyMems.ids)
			if sigs+mems == 0 {
				continue
			}
			for _, s := range twins {
				if k%(sigs+mems) < sigs {
					sig := d.Signals[s.dirtySigs.ids[k%sigs]]
					cur, _ := s.Peek(sig.Name)
					if sig.IsInput {
						s.SetInputID(sig.ID, cur^(v|1))
					} else if err := s.Poke(sig.Name, cur^(v|1)); err != nil {
						return err.Error()
					}
				} else {
					idx := uint(v) % mem.Depth
					cur, _ := s.PeekMem(mem.Name, idx)
					if err := s.PokeMem(mem.Name, idx, cur^1); err != nil {
						return err.Error()
					}
				}
			}
			if got := a.DirtyBits(); got != bits || len(a.dirtySigs.ids) != sigs || len(a.dirtyMems.ids) != mems {
				return fmt.Sprintf("re-marking a dirty element moved DirtyBits %d -> %d (%d/%d -> %d/%d listed)",
					bits, got, sigs, mems, len(a.dirtySigs.ids), len(a.dirtyMems.ids))
			}
		}
	}
	want := a.DirtyBits()
	bits, err := a.RestoreDirty(anchor)
	if err != nil {
		return err.Error()
	}
	if err := b.Restore(anchor); err != nil {
		return err.Error()
	}
	switch {
	case bits != want:
		return fmt.Sprintf("RestoreDirty wrote %d bits, DirtyBits said %d", bits, want)
	case b.DirtyBits() != bits:
		// Restore dirties exactly the elements that differ from the
		// anchor, on top of the twin's identical dirty set: a larger
		// count means an element changed without being marked.
		return fmt.Sprintf("Restore left %d dirty bits, RestoreDirty wrote %d", b.DirtyBits(), bits)
	case a.DirtyBits() != 0:
		return fmt.Sprintf("RestoreDirty left %d dirty bits", a.DirtyBits())
	case !reflect.DeepEqual(a.state.Vals, b.state.Vals) || !reflect.DeepEqual(a.state.Mems, b.state.Mems):
		return fmt.Sprintf("RestoreDirty and Restore diverge:\ndirty %v %v\nfull  %v %v",
			a.state.Vals, a.state.Mems, b.state.Vals, b.state.Mems)
	case !reflect.DeepEqual(a.Snapshot(), anchor):
		return "RestoreDirty did not return to the anchor"
	}
	return ""
}

// FuzzSimDirtyRestore is the simulator-level twin of
// vm.FuzzDirtyRestore: for any script of register, input and memory
// writes, clock cycles and re-anchorings, restoring the anchor through
// the dirty list equals a full Restore, and marking an already dirty
// element again does not grow the dirty set. The first byte picks the
// engine.
func FuzzSimDirtyRestore(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, dPoke, 0, 1, 2, 3, dRemark, 0, 9, 9, 9})
	f.Add([]byte{1, dInput, 1, 0, 0, 7, dStep, 3, dAnchor, dStep, 2, dPokeMem, 5, 0, 0, 0x42})
	f.Add([]byte{0, dInput, 1, 0, 0, 1, dStep, 1, dRemark, 3, 1, 1, 1, dAnchor, dPokeMem, 2, 1, 0, 1, dRemark, 1, 0, 0, 0})
	f.Add([]byte{1, dPoke, 1, 0xFF, 0xFF, 0xFF, dAnchor, dPoke, 1, 0, 0, 0, dStep, 0, dRemark, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind := []EngineKind{EngineCompiled, EngineInterp}[data[0]%2]
		if bad := runDirtyScript(kind, data[1:]); bad != "" {
			t.Fatalf("%v engine: %s", kind, bad)
		}
	})
}
