package rtl

// Write is one pending assignment produced by executing a statement.
// It names its target by ID, not by pointer, so a buffer of writes
// holds no pointers for the garbage collector to track. A register
// write carries the bits it replaces in Mask, so partial (bit or
// part-select) assignments merge correctly; a memory write targets
// element Idx and carries the memory's word mask.
type Write struct {
	ID   int32 // Signal.ID, or Memory.ID when Mem is set
	Mem  bool
	Mask uint64
	Val  uint64
	Idx  uint64
}

// Apply commits the write to the state. A memory write past the end
// of the memory is dropped.
func (w *Write) Apply(st *State) {
	if w.Mem {
		if m := st.Mems[w.ID]; w.Idx < uint64(len(m)) {
			m[w.Idx] = w.Val & w.Mask
		}
		return
	}
	old := st.Vals[w.ID]
	st.Vals[w.ID] = (old &^ w.Mask) | (w.Val & w.Mask)
}

// ExecComb executes a combinational node against the state, applying
// writes immediately (blocking semantics).
func (c *CombNode) ExecComb(st *State) error {
	w := walker[uint64, concrete]{c.Scope, concrete{st: st}}
	if c.Assign != nil {
		return w.update(nil, c.Assign.LHS, c.Assign.RHS) // concrete.fail ignores its statement
	}
	return w.exec(c.Block)
}

// ExecSeq executes a sequential block, appending deferred nonblocking
// writes to out; the caller commits them after all blocks ran.
func (b *SeqBlock) ExecSeq(st *State, out *[]Write) error {
	w := walker[uint64, concrete]{b.Scope, concrete{st: st, out: out}}
	return w.exec(b.Body)
}

func (c concrete) emit(w Write) {
	if c.out == nil {
		w.Apply(c.st)
		return
	}
	*c.out = append(*c.out, w)
}

func (c concrete) store(sig *Signal, m, v uint64) error {
	c.emit(Write{ID: int32(sig.ID), Mask: m, Val: v & m})
	return nil
}

func (c concrete) storeWord(m *Memory, idx, v uint64) error {
	c.emit(Write{ID: int32(m.ID), Mem: true, Mask: mask(m.Width), Idx: idx, Val: v})
	return nil
}
