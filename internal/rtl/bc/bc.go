// Package bc compiles an elaborated rtl.Design into operand-fused
// stack bytecode and runs it with event-driven activation — the
// Verilator move applied to this repo's netlist interpreter.
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
// A signal or constant operand does not get an op of its own when the
// op consuming it has a fused form: a binary operator whose right
// operand is a signal (L-form) or a literal or parameter (K-form), a
// part or constant bit select of a signal, a concat part that is a
// signal, a signal bit, a signal part select or a literal, and an if
// on a bare signal each read the operand inside the consuming op.
// Every other shape keeps the stack form.
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

// opcode selects the operation of one bytecode instruction.
type opcode uint8

// Expression opcodes operate on the value stack; store opcodes pop
// operands and write signal/memory state (comb, immediate) or append
// rtl.Write records (sequential, nonblocking). rmask(b) is the result
// mask ^0>>b: b holds 64 minus the result width.
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
	opJmp                   // pc = b
	opJz                    // if pop==0 { pc = b }
	opCaseEq                // lab=pop; if lab==tos { pc = b }

	opCaseTable // v=pop; t=caseTables[a]; if v<len(t) && t[v]>=0 { pc = t[v] }

	// Fused signal reads; a is the signal ID.
	opLoadRange  // push Vals[a]>>b & val (b = lo < width, val = part mask & signal mask>>b)
	opLoadBit    // push Vals[a]>>b & 1 (b < width)
	opJzL        // if Vals[a]&val == 0 { pc = b }
	opCaseTableL // v=Vals[a]&val; t=caseTables[b]; if v<len(t) && t[v]>=0 { pc = t[v] }

	// L-forms: y = Vals[a]&val, the right operand an opLoad would push.
	opAddL // tos = (tos+y) & rmask(b)
	opSubL // tos = (tos-y) & rmask(b)
	opAndL // tos = tos&y
	opOrL  // tos = (tos|y) & rmask(b)
	opXorL // tos = (tos^y) & rmask(b)
	opEqL  // tos = tos==y
	opNeL  // tos = tos!=y

	// K-forms: y = val, the right operand an opConst would push.
	opAddK // tos = (tos+y) & rmask(b)
	opSubK // tos = (tos-y) & rmask(b)
	opAndK // tos = tos&y
	opOrK  // tos = (tos|y) & rmask(b)
	opXorK // tos = (tos^y) & rmask(b)
	opEqK  // tos = tos==y
	opNeK  // tos = tos!=y
	opShlK // tos = (tos<<y) & rmask(b) (y < 64)
	opShrK // tos = tos>>y (y < 64)

	// Fused concat parts, appended below tos: a 1-bit part for
	// opConcatBit, a b-bit one otherwise.
	opConcatL     // tos = tos<<b | Vals[a]&val (val = signal mask)
	opConcatBit   // tos = tos<<1 | Vals[a]>>b&1 (b < width)
	opConcatRange // tos = tos<<b | Vals[a]>>c & val (c = lo < width, val as opLoadRange)
	opConcatK     // tos = tos<<b | val (val = literal & part mask)

	opStore      // v=pop; Vals[a] = (Vals[a]&^val)|(v&val)
	opStoreBit   // idx=pop,v=pop; if idx<b { merge bit idx of Vals[a] }
	opStoreRange // v=pop; Vals[a] = (Vals[a]&^val)|((v<<b)&val)
	opStoreMem   // idx=pop,v=pop; if idx<b { Mems[a][idx] = v&val }

	opNBStore      // v=pop; append Write{ID:a, Mask:val, Val:v&val}
	opNBStoreBit   // idx=pop,v=pop; if idx<b { append Write{ID:a, Mask:1<<idx, Val:(v&1)<<idx} }
	opNBStoreRange // v=pop; append Write{ID:a, Mask:val, Val:(v<<b)&val}
	opNBStoreMem   // idx=pop,v=pop; append Write{ID:a, Mem, Mask:val, Idx:idx, Val:v} (unmasked, like assignTo)
)

// op is one bytecode instruction, 24 bytes. Operand meaning depends on
// the opcode: a is a signal/memory ID, case table or repeat count; b
// is a width, depth, shift, bit index, result-mask shift or jump
// target; c is the low bit of a fused concat part select; val is a
// constant or a precomputed mask.
type op struct {
	code opcode
	a    int32
	b    int32
	c    int32
	val  uint64
}

// rmask returns the result mask an L- or K-form carries in b: the
// w low bits set, for b = 64-w.
func rmask(b int32) uint64 { return ^uint64(0) >> (uint32(b) & 63) }

// Program is a compiled design: one op sequence per comb node (in the
// design's topological order) and per sequential block, plus the
// fanout lists the activation engine seeds worklists from.
type Program struct {
	combs [][]op
	seqs  [][]op

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
