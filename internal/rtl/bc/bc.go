// Package bc compiles an elaborated rtl.Design into compact stack
// bytecode and runs it with event-driven activation — the Verilator
// move applied to this repo's netlist interpreter.
//
// The compiler (Compile) lowers every comb node and sequential block
// into a flat []op. All the work rtl.EvalExpr redoes on every visit —
// width computation, mask construction, identifier resolution,
// constant part-select bounds, error checking — happens once at
// compile time; the hot loop is a typed switch over ops with a small
// reused value stack and no allocation, no maps and no error paths.
// Anything the interpreter would reject at runtime (reversed part
// selects, unknown identifiers, unsupported lvalues) the compiler
// rejects up front, so a Program that compiled cannot fail to run.
//
// The engine (Engine) adds sensitivity-list activation on top: from
// each node's read/write sets the compiler builds per-signal and
// per-memory fanout lists, and Settle/RunSeq execute only nodes whose
// inputs (or externally poked outputs) changed since their last run.
// Quiescent logic costs one boolean test per settle — or nothing at
// all when no comb node is pending.
//
// The interpreter remains the semantic oracle: for every construct the
// emitted ops replicate rtl.EvalExpr / execStmt / assignTo bit for
// bit, including division-by-zero results, out-of-range index
// behavior, per-operator masking and nonblocking write buffering.
// Designs the compiler cannot prove equivalent (multiple sequential
// writers of one register, multiple comb writers of one memory) are
// rejected so the caller can fall back to the interpreter.
package bc

import "hardsnap/internal/rtl"

// opcode selects the operation of one bytecode instruction.
type opcode uint8

// Expression opcodes operate on the value stack; store opcodes pop
// operands and write signal/memory state (comb, immediate) or append
// rtl.Write records (sequential, nonblocking).
const (
	opConst   opcode = iota // push val
	opLoad                  // push Vals[a] & val
	opLoadMem               // idx=pop; push idx<b ? Mems[a][idx]&val : 0
	opNot                   // tos = ^tos & val
	opNeg                   // tos = -tos & val
	opLogNot                // tos = tos==0
	opRedAnd                // tos = tos==val
	opRedOr                 // tos = tos!=0
	opRedXor                // tos = parity(tos)
	opAdd                   // y=pop; tos = (tos+y)&val
	opSub                   // y=pop; tos = (tos-y)&val
	opMul                   // y=pop; tos = (tos*y)&val
	opDiv                   // y=pop; tos = y==0 ? val : (tos/y)&val
	opMod                   // y=pop; tos = y==0 ? tos&val : (tos%y)&val
	opAnd                   // y=pop; tos = tos&y (unmasked, like the interpreter)
	opOr                    // y=pop; tos = (tos|y)&val
	opXor                   // y=pop; tos = (tos^y)&val
	opLogAnd                // y=pop; tos = tos!=0 && y!=0
	opLogOr                 // y=pop; tos = tos!=0 || y!=0
	opEq                    // y=pop; tos = tos==y
	opNe                    // y=pop; tos = tos!=y
	opLt                    // y=pop; tos = tos<y
	opLe                    // y=pop; tos = tos<=y
	opGt                    // y=pop; tos = tos>y
	opGe                    // y=pop; tos = tos>=y
	opShl                   // y=pop; tos = y>=64 ? 0 : (tos<<y)&val
	opShr                   // y=pop; tos = y>=64 ? 0 : tos>>y (unmasked)
	opBit                   // idx=pop; tos = idx>=64 ? 0 : tos>>idx&1
	opRange                 // tos = tos>>b & val (b = lo, clamped to 64)
	opConcat                // pv=pop; tos = tos<<b | pv&val (b = part width)
	opRepeat                // tos = a copies of tos&val, each shifted by b
	opDup                   // push tos
	opPop                   // pop
	opJmp                   // pc = a
	opJz                    // if pop==0 { pc = a }
	opCaseEq                // lab=pop; if lab==tos { pc = a }

	opCaseTable // t=caseTables[a]; if tos<len(t) && t[tos]>=0 { pc = t[tos] }

	opStore      // v=pop; Vals[a] = (Vals[a]&^val)|(v&val)
	opStoreBit   // idx=pop,v=pop; if idx<b { merge bit idx of Vals[a] }
	opStoreRange // v=pop; Vals[a] = (Vals[a]&^val)|((v<<b)&val)
	opStoreMem   // idx=pop,v=pop; if idx<b { Mems[a][idx] = v&val }

	opNBStore      // v=pop; append Write{Sig:a, Mask:val, Val:v&val}
	opNBStoreBit   // idx=pop,v=pop; if idx<b { append Write{Sig:a, Mask:1<<idx, Val:(v&1)<<idx} }
	opNBStoreRange // v=pop; append Write{Sig:a, Mask:val, Val:(v<<b)&val}
	opNBStoreMem   // idx=pop,v=pop; append Write{Mem:a, Idx:idx, Val:v} (unmasked, like assignTo)
)

// op is one bytecode instruction. Operand meaning depends on the
// opcode: a is a signal/memory ID, jump target, part-select shift or
// repeat count; b is a width, depth or shift; val is a constant or a
// precomputed mask.
type op struct {
	code opcode
	a    int32
	b    int32
	val  uint64
}

// Program is a compiled design: one op sequence per comb node (in the
// design's topological order) and per sequential block, plus the
// fanout lists the activation engine seeds worklists from.
type Program struct {
	design  *rtl.Design
	combs   [][]op
	seqs    [][]op
	signals []*rtl.Signal
	mems    []*rtl.Memory

	// Fanout lists, indexed by signal/memory ID. Each holds node
	// indexes in ascending order (built by one pass over the nodes).
	sigCombReaders [][]int32 // comb nodes whose ops load the signal
	sigCombDriver  []int32   // comb node writing the signal, -1 if none
	sigSeqTouch    [][]int32 // seq blocks reading OR writing the signal
	memCombReaders [][]int32
	memCombWriters [][]int32
	memSeqTouch    [][]int32

	// caseTables holds one jump table per table-lowered case
	// statement, indexed by opCaseTable's operand: entry v is the pc of
	// the body the subject value v selects, -1 where no label lists v.
	caseTables [][]int32

	// stackMax is the deepest value stack any node needs.
	stackMax int
}

// Design returns the design this program was compiled from.
func (p *Program) Design() *rtl.Design { return p.design }

// NumCombOps and NumSeqOps report total instruction counts, for
// reporting compile results in experiments.
func (p *Program) NumCombOps() int {
	n := 0
	for _, ops := range p.combs {
		n += len(ops)
	}
	return n
}

func (p *Program) NumSeqOps() int {
	n := 0
	for _, ops := range p.seqs {
		n += len(ops)
	}
	return n
}

// NumCaseTables reports how many case statements were lowered to a
// jump table instead of a compare chain.
func (p *Program) NumCaseTables() int { return len(p.caseTables) }
