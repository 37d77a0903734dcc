package bc

import "hardsnap/internal/rtl"

// Stats counts engine work, for activation-rate reporting.
type Stats struct {
	Settles  uint64 // Settle calls
	CombRuns uint64 // comb nodes executed
	SeqRuns  uint64 // sequential blocks executed
}

// Engine executes a compiled Program against a shared rtl.State.
// Scheduling is event-driven: Settle and RunSeq only execute nodes
// whose inputs changed since their last run; external writers (pokes,
// restores, register commits) report changes via
// MarkSignal/MarkMemory.
//
// The engine mutates the state exactly as the interpreter would: comb
// stores apply immediately in topological order, sequential stores
// append rtl.Write records the caller commits.
type Engine struct {
	p  *Program
	st *rtl.State

	stack []uint64

	combPending []bool
	combLive    int
	seqPending  []bool
	seqLive     int

	stats Stats
}

// NewEngine binds a program to a state. All nodes start pending, so
// the first Settle reproduces the interpreter's initial full sweep.
func NewEngine(p *Program, st *rtl.State) *Engine {
	e := &Engine{
		p:           p,
		st:          st,
		stack:       make([]uint64, p.stackMax),
		combPending: make([]bool, len(p.combs)),
		seqPending:  make([]bool, len(p.seqs)),
		combLive:    len(p.combs),
		seqLive:     len(p.seqs),
	}
	for i := range e.combPending {
		e.combPending[i] = true
	}
	for i := range e.seqPending {
		e.seqPending[i] = true
	}
	return e
}

// Stats returns the work counters.
func (e *Engine) Stats() Stats { return e.stats }

func (e *Engine) wakeComb(i int) {
	if !e.combPending[i] {
		e.combPending[i] = true
		e.combLive++
	}
}

func (e *Engine) wakeSeq(i int) {
	if !e.seqPending[i] {
		e.seqPending[i] = true
		e.seqLive++
	}
}

// touchSig wakes everything sensitive to a signal change: comb
// readers, the signal's comb driver (so a poked wire is recomputed on
// the next settle, as the interpreter's full sweep would), and seq
// blocks reading or writing it (a written register poked externally
// must be re-driven). self is the comb node performing the store, or
// -1 for external writers; the driver skip avoids a node endlessly
// re-waking itself through its own full-width output.
func (e *Engine) touchSig(id, self int) {
	for _, j := range e.p.sigCombReaders[id] {
		e.wakeComb(int(j))
	}
	if d := e.p.sigCombDriver[id]; d >= 0 && int(d) != self {
		e.wakeComb(int(d))
	}
	for _, j := range e.p.sigSeqTouch[id] {
		e.wakeSeq(int(j))
	}
}

// touchMem wakes everything sensitive to a memory change; comb
// writers are included so an externally changed element is
// overwritten on the next settle exactly as the interpreter's
// unconditional sweep would overwrite it.
func (e *Engine) touchMem(id int) {
	for _, j := range e.p.memCombReaders[id] {
		e.wakeComb(int(j))
	}
	for _, j := range e.p.memCombWriters[id] {
		e.wakeComb(int(j))
	}
	for _, j := range e.p.memSeqTouch[id] {
		e.wakeSeq(int(j))
	}
}

// MarkSignal reports an external change of a signal's value (poke,
// input drive, restore, register commit).
func (e *Engine) MarkSignal(id int) { e.touchSig(id, -1) }

// MarkMemory reports an external change inside a memory.
func (e *Engine) MarkMemory(id int) { e.touchMem(id) }

// Settle runs pending comb nodes once, in topological order — one
// interpreter sweep over the active subset. A node's pending flag is
// cleared before it runs, so a self-reading toggle re-arms itself for
// the next sweep exactly like the interpreter re-evaluating it.
// Wakes to nodes later in the order are consumed in this sweep (the
// interpreter would run them after the writer anyway); wakes to
// earlier nodes persist to the next sweep (where the interpreter
// would also first see the change).
func (e *Engine) Settle() {
	e.stats.Settles++
	if e.combLive == 0 {
		return
	}
	for i := range e.combPending {
		if !e.combPending[i] {
			continue
		}
		e.combPending[i] = false
		e.combLive--
		e.exec(e.p.combs[i], nil, i)
		e.stats.CombRuns++
	}
}

// RunSeq runs pending sequential blocks in order, appending their
// nonblocking writes to buf. A skipped block's inputs and write
// targets are unchanged since its last run, so it would emit the same
// writes it emitted then — and those were already committed, making
// them no-ops the change-detecting commit loop would not re-mark.
func (e *Engine) RunSeq(buf *[]rtl.Write) {
	if e.seqLive == 0 {
		return
	}
	for i := range e.seqPending {
		if !e.seqPending[i] {
			continue
		}
		e.seqPending[i] = false
		e.seqLive--
		e.exec(e.p.seqs[i], buf, -1)
		e.stats.SeqRuns++
	}
}

// exec interprets one node's ops. The loop has no allocation, no map
// lookups and no error paths: the compiler resolved or rejected
// everything that could fail. A shift masked with 63 has an operand
// the compiler proved below 64; the mask only spares the check Go
// emits for larger counts.
func (e *Engine) exec(ops []op, buf *[]rtl.Write, self int) {
	vals := e.st.Vals
	mems := e.st.Mems
	stack := e.stack
	sp := 0
	pc := 0
	for pc < len(ops) {
		o := &ops[pc]
		pc++
		switch o.code {
		case opConst:
			stack[sp] = o.val
			sp++
		case opLoad:
			stack[sp] = vals[o.a] & o.val
			sp++
		case opLoadMem:
			idx := stack[sp-1]
			if idx < uint64(o.b) {
				stack[sp-1] = mems[o.a][idx] & o.val
			} else {
				stack[sp-1] = 0
			}
		case opNot:
			stack[sp-1] = ^stack[sp-1] & o.val
		case opNeg:
			stack[sp-1] = -stack[sp-1] & o.val
		case opLogNot:
			stack[sp-1] = b2u(stack[sp-1] == 0)
		case opRedAnd:
			stack[sp-1] = b2u(stack[sp-1] == o.val)
		case opRedOr:
			stack[sp-1] = b2u(stack[sp-1] != 0)
		case opRedXor:
			p := stack[sp-1]
			p ^= p >> 32
			p ^= p >> 16
			p ^= p >> 8
			p ^= p >> 4
			p ^= p >> 2
			p ^= p >> 1
			stack[sp-1] = p & 1
		case opAdd:
			sp--
			stack[sp-1] = (stack[sp-1] + stack[sp]) & o.val
		case opSub:
			sp--
			stack[sp-1] = (stack[sp-1] - stack[sp]) & o.val
		case opMul:
			sp--
			stack[sp-1] = (stack[sp-1] * stack[sp]) & o.val
		case opDiv:
			sp--
			if stack[sp] == 0 {
				stack[sp-1] = o.val
			} else {
				stack[sp-1] = (stack[sp-1] / stack[sp]) & o.val
			}
		case opMod:
			sp--
			if stack[sp] == 0 {
				stack[sp-1] = stack[sp-1] & o.val
			} else {
				stack[sp-1] = (stack[sp-1] % stack[sp]) & o.val
			}
		case opAnd:
			sp--
			stack[sp-1] &= stack[sp]
		case opOr:
			sp--
			stack[sp-1] = (stack[sp-1] | stack[sp]) & o.val
		case opXor:
			sp--
			stack[sp-1] = (stack[sp-1] ^ stack[sp]) & o.val
		case opLogAnd:
			sp--
			stack[sp-1] = b2u(stack[sp-1] != 0 && stack[sp] != 0)
		case opLogOr:
			sp--
			stack[sp-1] = b2u(stack[sp-1] != 0 || stack[sp] != 0)
		case opEq:
			sp--
			stack[sp-1] = b2u(stack[sp-1] == stack[sp])
		case opNe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] != stack[sp])
		case opLt:
			sp--
			stack[sp-1] = b2u(stack[sp-1] < stack[sp])
		case opLe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] <= stack[sp])
		case opGt:
			sp--
			stack[sp-1] = b2u(stack[sp-1] > stack[sp])
		case opGe:
			sp--
			stack[sp-1] = b2u(stack[sp-1] >= stack[sp])
		case opShl:
			sp--
			if stack[sp] >= 64 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] = (stack[sp-1] << stack[sp]) & o.val
			}
		case opShr:
			sp--
			if stack[sp] >= 64 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] >>= stack[sp]
			}
		case opBit:
			sp--
			idx := stack[sp]
			if idx >= 64 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] = stack[sp-1] >> idx & 1
			}
		case opRange:
			stack[sp-1] = stack[sp-1] >> uint(o.b) & o.val
		case opConcat:
			sp--
			stack[sp-1] = stack[sp-1]<<uint(o.b) | (stack[sp] & o.val)
		case opRepeat:
			pv := stack[sp-1]
			var out uint64
			for i := int32(0); i < o.a; i++ {
				out = out<<uint(o.b) | (pv & o.val)
			}
			stack[sp-1] = out
		case opDup:
			stack[sp] = stack[sp-1]
			sp++
		case opPop:
			sp--
		case opJmp:
			pc = int(o.b)
		case opJz:
			sp--
			if stack[sp] == 0 {
				pc = int(o.b)
			}
		case opCaseEq:
			sp--
			if stack[sp] == stack[sp-1] {
				pc = int(o.b)
			}
		case opCaseTable:
			sp--
			t := e.p.caseTables[o.a]
			if v := stack[sp]; v < uint64(len(t)) && t[v] >= 0 {
				pc = int(t[v])
			}
		case opCaseTableL:
			t := e.p.caseTables[o.b]
			if v := vals[o.a] & o.val; v < uint64(len(t)) && t[v] >= 0 {
				pc = int(t[v])
			}

		case opLoadRange:
			stack[sp] = vals[o.a] >> (uint(o.b) & 63) & o.val
			sp++
		case opLoadBit:
			stack[sp] = vals[o.a] >> (uint(o.b) & 63) & 1
			sp++
		case opJzL:
			if vals[o.a]&o.val == 0 {
				pc = int(o.b)
			}

		case opAddL:
			stack[sp-1] = (stack[sp-1] + vals[o.a]&o.val) & rmask(o.b)
		case opSubL:
			stack[sp-1] = (stack[sp-1] - vals[o.a]&o.val) & rmask(o.b)
		case opAndL:
			stack[sp-1] &= vals[o.a] & o.val
		case opOrL:
			stack[sp-1] = (stack[sp-1] | vals[o.a]&o.val) & rmask(o.b)
		case opXorL:
			stack[sp-1] = (stack[sp-1] ^ vals[o.a]&o.val) & rmask(o.b)
		case opEqL:
			stack[sp-1] = b2u(stack[sp-1] == vals[o.a]&o.val)
		case opNeL:
			stack[sp-1] = b2u(stack[sp-1] != vals[o.a]&o.val)

		case opAddK:
			stack[sp-1] = (stack[sp-1] + o.val) & rmask(o.b)
		case opSubK:
			stack[sp-1] = (stack[sp-1] - o.val) & rmask(o.b)
		case opAndK:
			stack[sp-1] &= o.val
		case opOrK:
			stack[sp-1] = (stack[sp-1] | o.val) & rmask(o.b)
		case opXorK:
			stack[sp-1] = (stack[sp-1] ^ o.val) & rmask(o.b)
		case opEqK:
			stack[sp-1] = b2u(stack[sp-1] == o.val)
		case opNeK:
			stack[sp-1] = b2u(stack[sp-1] != o.val)
		case opShlK:
			stack[sp-1] = (stack[sp-1] << (o.val & 63)) & rmask(o.b)
		case opShrK:
			stack[sp-1] >>= o.val & 63

		case opConcatL:
			stack[sp-1] = stack[sp-1]<<uint(o.b) | vals[o.a]&o.val
		case opConcatBit:
			stack[sp-1] = stack[sp-1]<<1 | vals[o.a]>>(uint(o.b)&63)&1
		case opConcatRange:
			stack[sp-1] = stack[sp-1]<<uint(o.b) | vals[o.a]>>(uint(o.c)&63)&o.val
		case opConcatK:
			stack[sp-1] = stack[sp-1]<<uint(o.b) | o.val

		case opStore:
			sp--
			old := vals[o.a]
			nv := (old &^ o.val) | (stack[sp] & o.val)
			if nv != old {
				vals[o.a] = nv
				e.touchSig(int(o.a), self)
			}
		case opStoreBit:
			sp -= 2
			idx := stack[sp+1]
			if idx < uint64(o.b) {
				old := vals[o.a]
				m := uint64(1) << idx
				nv := (old &^ m) | ((stack[sp] & 1) << idx)
				if nv != old {
					vals[o.a] = nv
					e.touchSig(int(o.a), self)
				}
			}
		case opStoreRange:
			sp--
			old := vals[o.a]
			nv := (old &^ o.val) | ((stack[sp] << uint(o.b)) & o.val)
			if nv != old {
				vals[o.a] = nv
				e.touchSig(int(o.a), self)
			}
		case opStoreMem:
			sp -= 2
			idx := stack[sp+1]
			if idx < uint64(o.b) {
				nv := stack[sp] & o.val
				if mems[o.a][idx] != nv {
					mems[o.a][idx] = nv
					e.touchMem(int(o.a))
				}
			}

		case opNBStore:
			sp--
			*buf = append(*buf, rtl.Write{ID: o.a, Mask: o.val, Val: stack[sp] & o.val})
		case opNBStoreBit:
			sp -= 2
			idx := stack[sp+1]
			if idx < uint64(o.b) {
				*buf = append(*buf, rtl.Write{ID: o.a, Mask: 1 << idx, Val: (stack[sp] & 1) << idx})
			}
		case opNBStoreRange:
			sp--
			*buf = append(*buf, rtl.Write{ID: o.a, Mask: o.val, Val: (stack[sp] << uint(o.b)) & o.val})
		case opNBStoreMem:
			sp -= 2
			*buf = append(*buf, rtl.Write{ID: o.a, Mem: true, Mask: o.val, Idx: stack[sp+1], Val: stack[sp]})
		}
	}
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
