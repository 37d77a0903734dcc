package scanchain

import (
	"errors"
	"fmt"

	"hardsnap/internal/expr"
	"hardsnap/internal/rtl"
)

// BitRef identifies where one scan-chain bit lives in the elaborated
// design: bit Bit of register Name, or bit Bit of word Index of memory
// Name. Names are hierarchical, matching rtl/sim naming.
type BitRef struct {
	Name  string
	IsMem bool
	Index uint // memory word
	Bit   uint
}

// Layout reconstructs the full chain bit order of an instrumented
// hierarchy: position 0 is the first bit after scan_in (the LSB of the
// first element), the last position drives scan_out. Registers
// contribute bits LSB to MSB; memories contribute word 0..D-1, each
// LSB to MSB; instances splice in the child module's layout under a
// hierarchical prefix.
func Layout(reports map[string]*Report, top string) ([]BitRef, error) {
	var out []BitRef
	if err := layoutModule(reports, top, "", &out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

func layoutModule(reports map[string]*Report, module, prefix string, out *[]BitRef, depth int) error {
	if depth > 64 {
		return fmt.Errorf("scanchain: layout recursion too deep at %s", module)
	}
	r, ok := reports[module]
	if !ok {
		return fmt.Errorf("scanchain: no report for module %q", module)
	}
	full := func(name string) string {
		if prefix == "" {
			return name
		}
		return prefix + "." + name
	}
	for _, el := range r.Elements {
		switch el.Kind {
		case KindRegister:
			for b := uint(0); b < el.Bits; b++ {
				*out = append(*out, BitRef{Name: full(el.Name), Bit: b})
			}
		case KindMemory:
			for w := uint(0); w < el.Depth; w++ {
				for b := uint(0); b < el.Width; b++ {
					*out = append(*out, BitRef{Name: full(el.Name), IsMem: true, Index: w, Bit: b})
				}
			}
		case KindInstance:
			if err := layoutModule(reports, el.Module, full(el.Name), out, depth+1); err != nil {
				return err
			}
		}
	}
	return nil
}

// String names the bit: "r[3]" for a register bit, "m[2][3]" for a
// memory bit.
func (r BitRef) String() string {
	if r.IsMem {
		return fmt.Sprintf("%s[%d][%d]", r.Name, r.Index, r.Bit)
	}
	return fmt.Sprintf("%s[%d]", r.Name, r.Bit)
}

// ProveShift discharges the shift obligation of an instrumented design
// d whose chain order is layout: with scan_enable high, one clock
// moves scan_in into position 0 and every other position's value into
// the next one, and scan_out shows the last position. The layout must
// name every state bit of d exactly once, so a proven shift touches
// nothing outside the chain.
//
// The proof is one symbolic clock of d (rtl.SymStep) with every other
// input free. Terms are hash-consed and an extract folds through the
// concatenation the pass emits, so each position's check is a pointer
// compare and no solver runs. It returns nil when the obligation
// holds, and otherwise an error naming the first position (or the pin)
// where it fails.
func ProveShift(d *rtl.Design, layout []BitRef) error {
	en, in, out, err := scanPins(d)
	if err != nil {
		return err
	}
	if n := d.StateBits(); uint(len(layout)) != n {
		return fmt.Errorf("scanchain: chain covers %d of %d state bits", len(layout), n)
	}
	b := expr.NewBuilder()
	cyc := rtl.SymStep(d, b, map[int]uint64{en.ID: 1})
	prev, err := cyc.Cur(in.ID)
	if err != nil {
		return fmt.Errorf("scanchain: %s: %w", inName, err)
	}
	regCov := make([]uint64, len(d.Signals))
	memCov := make([][]uint64, len(d.Memories))
	var el chainElem // the register or memory word of the last position
	for k := 0; k < len(layout); {
		ref := layout[k]
		if !el.holds(ref) {
			if el, err = resolveElement(d, cyc, ref, regCov, memCov); err != nil {
				return fmt.Errorf("scanchain: chain position %d (%s): %w", k, ref, err)
			}
		}
		w := el.cur.Width()
		// A run over bits 0..w-1 of one element, the order Layout
		// gives, is checked whole: the element shifted up by one bit,
		// prev entering at bit 0.
		if ref.Bit == 0 && *el.cov == 0 && el.run(layout[k:]) {
			want := prev
			if w > 1 {
				want = b.Concat(b.Extract(el.cur, 0, w-1), prev)
			}
			if el.next == want {
				*el.cov = expr.Mask(w)
				prev = b.Extract(el.cur, w-1, 1)
				k += int(w)
				continue
			}
		}
		// Otherwise bit by bit, which also finds the failing position.
		if ref.Bit >= w {
			return fmt.Errorf("scanchain: chain position %d (%s): no such bit", k, ref)
		}
		if *el.cov&(1<<ref.Bit) != 0 {
			return fmt.Errorf("scanchain: chain position %d (%s) repeats an earlier position", k, ref)
		}
		*el.cov |= 1 << ref.Bit
		cur, next := b.Extract(el.cur, ref.Bit, 1), b.Extract(el.next, ref.Bit, 1)
		if next != prev {
			return fmt.Errorf("scanchain: chain position %d (%s): next value is %s, want %s", k, ref, brief(next), brief(prev))
		}
		prev = cur
		k++
	}
	got, err := cyc.Cur(out.ID)
	if err != nil {
		return fmt.Errorf("scanchain: %s: %w", outName, err)
	}
	if got != prev {
		return fmt.Errorf("scanchain: %s is %s, want the last chain position %s", outName, brief(got), brief(prev))
	}
	return nil
}

// scanPins resolves the three scan ports of d.
func scanPins(d *rtl.Design) (en, in, out *rtl.Signal, err error) {
	for _, p := range []struct {
		name  string
		input bool
		sig   **rtl.Signal
	}{{enableName, true, &en}, {inName, true, &in}, {outName, false, &out}} {
		sig, ok := d.SignalByName(p.name)
		if !ok || sig.IsInput != p.input || sig.Width != 1 {
			return nil, nil, nil, fmt.Errorf("scanchain: design has no 1-bit scan port %s", p.name)
		}
		*p.sig = sig
	}
	return en, in, out, nil
}

// chainElem is the register or memory word a run of chain positions
// lives in: its value before the clock and after it, and the mask of
// its bits the chain has covered so far.
type chainElem struct {
	name      string
	mem       bool
	index     uint
	cur, next *expr.Term
	cov       *uint64
}

func (e *chainElem) holds(ref BitRef) bool {
	return e.cur != nil && e.name == ref.Name && e.mem == ref.IsMem && e.index == ref.Index
}

// run reports whether refs starts with every bit of e in order.
func (e *chainElem) run(refs []BitRef) bool {
	w := e.cur.Width()
	if uint(len(refs)) < w {
		return false
	}
	for i, ref := range refs[:w] {
		if !e.holds(ref) || ref.Bit != uint(i) {
			return false
		}
	}
	return true
}

func resolveElement(d *rtl.Design, cyc *rtl.SymCycle, ref BitRef, regCov []uint64, memCov [][]uint64) (chainElem, error) {
	el := chainElem{name: ref.Name, mem: ref.IsMem, index: ref.Index}
	var err error
	if ref.IsMem {
		m, ok := d.MemoryByName(ref.Name)
		if !ok || ref.Index >= m.Depth {
			return el, errors.New("no such memory word")
		}
		if memCov[m.ID] == nil {
			memCov[m.ID] = make([]uint64, m.Depth)
		}
		el.cov = &memCov[m.ID][ref.Index]
		el.cur = cyc.CurWord(m.ID, ref.Index)
		el.next, err = cyc.NextWord(m.ID, ref.Index)
		return el, err
	}
	sig, ok := d.SignalByName(ref.Name)
	if !ok || !sig.IsReg {
		return el, errors.New("no such register")
	}
	el.cov = &regCov[sig.ID]
	if el.cur, err = cyc.Cur(sig.ID); err == nil {
		el.next, err = cyc.Next(sig.ID)
	}
	return el, err
}

// brief renders a term for an error message: a bit or a constant in
// full, anything larger by its operator and width.
func brief(t *expr.Term) string {
	switch t.Op() {
	case expr.OpConst, expr.OpVar:
		return t.String()
	case expr.OpExtract:
		if t.Args()[0].Op() == expr.OpVar {
			return t.String()
		}
	}
	return fmt.Sprintf("a %d-bit %s term", t.Width(), t.Op())
}
