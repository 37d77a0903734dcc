package symexec

import (
	"fmt"
	"slices"

	"hardsnap/internal/asm"
	"hardsnap/internal/expr"
	"hardsnap/internal/isa"
	"hardsnap/internal/solver"
	"hardsnap/internal/vm"
)

// Policy selects how symbolic values are concretized when they reach
// the hardware boundary (the paper's user-customizable concretization
// policy).
type Policy int

// Concretization policies.
const (
	// ConcretizeOne picks a single feasible value (performance).
	ConcretizeOne Policy = iota + 1
	// ConcretizeAll enumerates feasible values up to MaxValues,
	// forking a state per value (completeness).
	ConcretizeAll
)

// MMIOHandler performs concrete hardware accesses on behalf of a
// state. The engine implements it with bus routing plus hardware
// context switching.
type MMIOHandler interface {
	Read(st *State, addr uint32) (uint32, error)
	Write(st *State, addr uint32, val uint32) error
}

// Config parameterizes the executor.
type Config struct {
	// VM describes the memory layout (RAM, MMIO window, vectors).
	VM vm.Config
	// Policy is the boundary concretization policy.
	Policy Policy
	// MaxValues bounds ConcretizeAll enumeration (default 8).
	MaxValues int
}

// Stats counts executor activity.
type Stats struct {
	Instructions uint64
	Forks        uint64
	SolverCalls  uint64
	Concretized  uint64
	// SolverUnknowns is always 0: every solver query is decided. The
	// field keeps its counter slot in the journal and dist byte forms.
	SolverUnknowns uint64
}

// Executor interprets HS32 instructions symbolically.
type Executor struct {
	B      *expr.Builder
	Solver *solver.Solver

	cfg    Config
	mmio   MMIOHandler
	image  []byte
	prog   *asm.Program
	nextID uint64

	// code is prog's code range decoded once, shared by every state
	// and by every spawned worker.
	code *isa.Table

	// concolic, when non-nil, switches the executor into concolic
	// replay: every decision that would normally ask the solver is
	// instead resolved by evaluating terms under the concrete input
	// assignment (see concolic.go). No forks and no solver calls
	// happen in this mode.
	concolic *concolicCtx

	// eval evaluates branch conditions under state witnesses and terms
	// under concolic inputs.
	eval expr.Evaluator

	Stats Stats
}

// New builds an executor for a loaded program. mmio may be nil for
// pure-software firmware.
func New(cfg Config, prog *asm.Program, mmio MMIOHandler) (*Executor, error) {
	cfg.VM = cfg.VM.WithDefaults()
	if cfg.Policy == 0 {
		cfg.Policy = ConcretizeOne
	}
	if cfg.MaxValues <= 0 {
		cfg.MaxValues = 8
	}
	image := make([]byte, cfg.VM.RAMSize)
	off := int64(prog.Base) - int64(cfg.VM.RAMBase)
	if off < 0 || off+int64(len(prog.Code)) > int64(len(image)) {
		return nil, fmt.Errorf("symexec: program does not fit in RAM")
	}
	copy(image[off:], prog.Code)
	b := expr.NewBuilder()
	e := &Executor{
		B:      b,
		Solver: solver.New(b),
		cfg:    cfg,
		mmio:   mmio,
		image:  image,
		prog:   prog,
		code:   isa.DecodeProgram(prog.Base, prog.Code),
	}
	return e, nil
}

// Config returns the executor's normalized configuration.
func (e *Executor) Config() Config { return e.cfg }

// NextID returns the last state ID this executor allocated; new
// states get strictly larger IDs.
func (e *Executor) NextID() uint64 { return e.nextID }

// Spawn returns a worker executor for parallel subtree exploration.
// The spawn shares the parent's term Builder (concurrency-safe, so
// pointer equality keeps meaning structural equality across workers),
// the read-only program image and its decoded code table, and the
// parent solver's memo Cache — but owns a private Solver (solvers are
// single-goroutine) and allocates state IDs from idBase upward, so
// sibling workers can fork freely without ID collisions. The MMIO
// handler is left nil: each worker engine injects its own hardware
// boundary.
func (e *Executor) Spawn(idBase uint64) *Executor {
	ne := &Executor{
		B:      e.B,
		Solver: solver.New(e.B),
		cfg:    e.cfg,
		image:  e.image,
		prog:   e.prog,
		code:   e.code,
		nextID: idBase,
	}
	ne.Solver.Cache = e.Solver.Cache
	return ne
}

// SetMMIO installs (or replaces) the hardware boundary handler; the
// engine injects itself here after construction.
func (e *Executor) SetMMIO(h MMIOHandler) { e.mmio = h }

// ModelFor returns a satisfying assignment for the state's path
// condition: the model captured at termination if present, otherwise a
// fresh solver query. ok is false for infeasible paths.
func (e *Executor) ModelFor(st *State) (expr.Assignment, bool) {
	if st.Model != nil {
		return st.Model, true
	}
	ok, model := e.check(st)
	return model, ok
}

// TestVector materializes concrete input bytes, per make-symbolic tag,
// that drive concrete execution down this state's path (the paper's
// test-case generation). Buffers registered repeatedly under one tag
// alias the same input. ok is false when the path is infeasible.
func (e *Executor) TestVector(st *State) (map[uint32][]byte, bool) {
	model, ok := e.ModelFor(st)
	if !ok {
		return nil, false
	}
	out := make(map[uint32][]byte)
	for _, si := range st.SymInputs {
		buf := out[si.Tag]
		if uint32(len(buf)) < si.Len {
			grown := make([]byte, si.Len)
			copy(grown, buf)
			buf = grown
		}
		for i := uint32(0); i < si.Len; i++ {
			buf[i] = byte(model[fmt.Sprintf("sym%d_%d", si.Tag, i)])
		}
		out[si.Tag] = buf
	}
	return out, true
}

// InitialState returns the entry state (PC at the program entry,
// registers zero, empty path condition).
func (e *Executor) InitialState() *State {
	e.nextID++
	st := &State{
		ID:      e.nextID,
		PC:      e.prog.Entry,
		Mem:     newMemory(e.cfg.VM.RAMBase, e.image, e.code),
		Status:  StatusRunning,
		Witness: expr.Assignment{},
	}
	zero := e.B.Const(0, 32)
	for i := range st.Regs {
		st.Regs[i] = zero
	}
	return st
}

// StateFromConcrete builds a symbolic state mirroring a concrete
// machine (the fast-forwarding hand-off): registers become constant
// terms and the RAM image becomes the new concrete backing. The mem
// slice is copied. The state shares the executor's decoded code table:
// a word the image changed does not match its entry and is decoded
// from the image.
func (e *Executor) StateFromConcrete(pc uint32, regs [isa.NumRegs]uint32, mem []byte,
	epc uint32, inHandler bool, pending uint32) (*State, error) {
	if uint32(len(mem)) != e.cfg.VM.RAMSize {
		return nil, fmt.Errorf("symexec: concrete RAM size %d != configured %d", len(mem), e.cfg.VM.RAMSize)
	}
	image := make([]byte, len(mem))
	copy(image, mem)
	e.nextID++
	st := &State{
		ID:         e.nextID,
		PC:         pc,
		Mem:        newMemory(e.cfg.VM.RAMBase, image, e.code),
		Status:     StatusRunning,
		EPC:        epc,
		InHandler:  inHandler,
		IRQPending: pending,
		Witness:    expr.Assignment{},
	}
	for i := range st.Regs {
		st.Regs[i] = e.B.Const(uint64(regs[i]), 32)
	}
	return st, nil
}

func (e *Executor) fork(st *State) *State {
	e.nextID++
	e.Stats.Forks++
	return st.Fork(e.nextID)
}

func (e *Executor) setReg(st *State, r uint8, t *expr.Term) {
	if r != isa.RegZero {
		st.Regs[r] = t
	}
}

// check decides the state's path condition plus extra constraints: ok
// reports it satisfiable, with model one of its solutions.
func (e *Executor) check(st *State, extra ...*expr.Term) (ok bool, model expr.Assignment) {
	e.Stats.SolverCalls++
	key := e.pathKey(st, extra)
	res, model := e.Solver.Check(st.Constraints, &key, extra...)
	return res == solver.Sat, model
}

// pathKey returns the solver cache's SetKey of st's path condition
// plus extra (the zero key when the solver keeps no cache). The state
// keeps the key of the constraints it has folded so far and folds in
// the rest now, once each; extra goes into a copy. A term is folded
// unless the same pointer came earlier, which is exactly the batch
// key's dedup by digest: every term of a run comes from one interning
// Builder (shared by spawned workers), so pointer equality is
// structural equality.
func (e *Executor) pathKey(st *State, extra []*expr.Term) solver.SetKey {
	c := e.Solver.Cache
	if c == nil {
		return solver.SetKey{}
	}
	for ; st.keyed < len(st.Constraints); st.keyed++ {
		if t := st.Constraints[st.keyed]; !slices.Contains(st.Constraints[:st.keyed], t) {
			c.Fold(&st.key, t)
		}
	}
	k := st.key
	for i, t := range extra {
		if !slices.Contains(st.Constraints, t) && !slices.Contains(extra[:i], t) {
			c.Fold(&k, t)
		}
	}
	return k
}

// decide is check with the state's witness consulted first: when the
// witness satisfies cond, the extended path condition is satisfiable
// with the witness as its model and no query runs.
func (e *Executor) decide(st *State, cond *expr.Term) (ok bool, model expr.Assignment) {
	if st.Witness != nil && e.eval.Eval(cond, st.Witness) != 0 {
		return true, st.Witness
	}
	return e.check(st, cond)
}

// concretize reduces a term to concrete value(s) according to the
// policy. The current state is constrained to the first value;
// additional feasible values produce forked sibling states whose PC
// still points at the current instruction (they re-execute it with
// their value pinned). Must be called before the instruction mutates
// the state.
func (e *Executor) concretize(st *State, t *expr.Term, forks *[]*State) (uint32, error) {
	if v, ok := t.Const(); ok {
		return uint32(v), nil
	}
	if c := e.concolic; c != nil {
		// Concolic replay: the concrete input decides the value. No
		// pinning constraint is added — deliberately. A hardware-bound
		// value (say the input bytes streamed into a CRC peripheral)
		// must not freeze the very bytes a later branch flip wants to
		// change; the solved seed is validated by concrete re-execution
		// anyway, so an over-permissive path condition costs at most a
		// wasted seed while an over-constrained one hides solutions.
		e.Stats.Concretized++
		return uint32(e.eval.Eval(t, c.assign)), nil
	}
	e.Stats.Concretized++
	max := 1
	if e.cfg.Policy == ConcretizeAll {
		max = e.cfg.MaxValues
	}
	// Enumerate issues its blocking queries on one solver (the
	// incremental context re-blasts nothing between them); count the
	// queries it actually ran, not a guess from the value count.
	before := e.Solver.Stats.Queries
	key := e.pathKey(st, nil)
	vals, models := e.Solver.Enumerate(st.Constraints, &key, t, max)
	e.Stats.SolverCalls += uint64(e.Solver.Stats.Queries - before)
	if len(vals) == 0 {
		st.Status = StatusInfeasible
		return 0, nil
	}
	for i := 1; i < len(vals); i++ {
		sib := e.fork(st)
		sib.AddConstraint(e.B.Eq(t, e.B.Const(vals[i], t.Width())))
		sib.Witness = models[i]
		*forks = append(*forks, sib)
	}
	st.AddConstraint(e.B.Eq(t, e.B.Const(vals[0], t.Width())))
	st.Witness = models[0]
	return uint32(vals[0]), nil
}

func (e *Executor) fault(st *State, format string, args ...any) {
	st.Status = StatusFault
	st.Err = &vm.FaultError{PC: st.PC, Msg: fmt.Sprintf(format, args...)}
}

// ServePendingInterrupt dispatches one pending IRQ if the state can
// take it (Algorithm 1's ServePendingInterrupt). Handlers are atomic:
// no dispatch while one runs.
func (e *Executor) ServePendingInterrupt(st *State) error {
	if st.Status != StatusRunning || st.InHandler || st.IRQPending == 0 {
		return nil
	}
	n, vector, ok := e.cfg.VM.NextIRQ(st.IRQPending)
	if !ok {
		return nil
	}
	st.IRQPending &^= 1 << n
	handler, err := st.Mem.ConcreteWord(e.B, vector)
	if err != nil {
		return err
	}
	if handler == 0 {
		return nil
	}
	st.EPC = st.PC
	st.InHandler = true
	st.PC = handler
	return nil
}

// Step symbolically executes one instruction of st. It returns the
// sibling states created by forking (branches, concretization,
// assertion checks); st itself remains the "primary" successor. On
// termination st.Status changes.
func (e *Executor) Step(st *State) ([]*State, error) {
	if st.Status != StatusRunning {
		return nil, nil
	}
	in, ok := st.Mem.fetchDecoded(st.PC)
	if !ok {
		word, err := st.Mem.ConcreteWord(e.B, st.PC)
		if err != nil {
			st.Status = StatusFault
			st.Err = err
			return nil, nil
		}
		if in, err = isa.Decode(word); err != nil {
			e.fault(st, "illegal instruction %#08x", word)
			return nil, nil
		}
	}
	e.Stats.Instructions++
	st.Steps++
	var forks []*State
	next := st.PC + 4
	b := e.B
	r := &st.Regs

	switch in.Op {
	case isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpSLL, isa.OpSRL,
		isa.OpSRA, isa.OpMUL, isa.OpDIVU, isa.OpREMU, isa.OpSLT, isa.OpSLTU:
		e.setReg(st, in.Rd, alu(b, in.Op, r[in.Rs1], r[in.Rs2]))

	case isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpSLLI, isa.OpSRLI,
		isa.OpSRAI, isa.OpSLTI, isa.OpSLTIU:
		e.setReg(st, in.Rd, alu(b, in.Op, r[in.Rs1], b.Const(uint64(uint32(in.Imm)), 32)))

	case isa.OpLUI:
		e.setReg(st, in.Rd, b.Const(uint64(isa.LUIValue(in.Imm)), 32))

	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU:
		if done, err := e.execLoad(st, in, &forks); done || err != nil {
			return forks, err
		}

	case isa.OpSW, isa.OpSH, isa.OpSB:
		if done, err := e.execStore(st, in, &forks); done || err != nil {
			return forks, err
		}

	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
		taken := branchCond(b, in.Op, r[in.Rs1], r[in.Rs2])
		if v, ok := taken.Const(); ok {
			if v != 0 {
				next = st.PC + uint32(in.Imm)
			}
			break
		}
		if c := e.concolic; c != nil {
			// Concolic replay: follow the side the concrete input takes,
			// record the branch so the far side can be solved for later.
			tv := e.eval.Eval(taken, c.assign) != 0
			c.trace = append(c.trace, ConcolicBranch{
				PC:        st.PC,
				Cond:      taken,
				Taken:     tv,
				PrefixLen: len(st.Constraints),
			})
			if tv {
				st.AddConstraint(taken)
				next = st.PC + uint32(in.Imm)
			} else {
				st.AddConstraint(b.NotBool(taken))
			}
			break
		}
		// Symbolic branch: the fork point of the paper's Algorithm 1.
		// The witness satisfies exactly one side, so only the other
		// side is a solver query.
		satT, modelT := e.decide(st, taken)
		satF, modelF := e.decide(st, b.NotBool(taken))
		switch {
		case satT && satF:
			sib := e.fork(st)
			sib.AddConstraint(b.NotBool(taken))
			sib.Witness = modelF
			sib.PC = st.PC + 4
			forks = append(forks, sib)
			st.AddConstraint(taken)
			st.Witness = modelT
			next = st.PC + uint32(in.Imm)
		case satT:
			st.AddConstraint(taken)
			st.Witness = modelT
			next = st.PC + uint32(in.Imm)
		case satF:
			st.AddConstraint(b.NotBool(taken))
			st.Witness = modelF
		default:
			st.Status = StatusInfeasible
			return forks, nil
		}

	case isa.OpJAL:
		e.setReg(st, in.Rd, b.Const(uint64(st.PC+4), 32))
		next = st.PC + uint32(in.Imm)

	case isa.OpJALR:
		targetT := b.And(b.Add(r[in.Rs1], b.Const(uint64(uint32(in.Imm)), 32)), b.Const(^uint64(3), 32))
		tv, err := e.concretize(st, targetT, &forks)
		if err != nil || st.Status != StatusRunning {
			return forks, err
		}
		e.setReg(st, in.Rd, b.Const(uint64(st.PC+4), 32))
		next = tv

	case isa.OpECALL:
		stop, err := e.execEcall(st, in.Imm, &forks)
		if err != nil {
			return forks, err
		}
		if stop {
			return forks, nil
		}

	case isa.OpMRET:
		if st.InHandler {
			st.InHandler = false
			next = st.EPC
		}

	default:
		e.fault(st, "unimplemented opcode %v", in.Op)
		return forks, nil
	}

	if st.Status == StatusRunning {
		st.PC = next
	}
	return forks, nil
}

// alu is isa.ALU in the term domain, with the same case groups: rd
// for an R-type or I-type ALU op on x and y, where y is the
// sign-extended immediate of an I-type op. The Builder gives each
// operator isa.ALU's rules for shifts of 32 or more and division by
// zero, and folds concrete operands to the value isa.ALU computes.
func alu(b *expr.Builder, op isa.Opcode, x, y *expr.Term) *expr.Term {
	switch op {
	case isa.OpADD, isa.OpADDI:
		return b.Add(x, y)
	case isa.OpSUB:
		return b.Sub(x, y)
	case isa.OpAND, isa.OpANDI:
		return b.And(x, y)
	case isa.OpOR, isa.OpORI:
		return b.Or(x, y)
	case isa.OpXOR, isa.OpXORI:
		return b.Xor(x, y)
	case isa.OpSLL, isa.OpSLLI:
		return b.Shl(x, y)
	case isa.OpSRL, isa.OpSRLI:
		return b.Lshr(x, y)
	case isa.OpSRA, isa.OpSRAI:
		return b.Ashr(x, y)
	case isa.OpMUL:
		return b.Mul(x, y)
	case isa.OpDIVU:
		return b.UDiv(x, y)
	case isa.OpREMU:
		return b.URem(x, y)
	case isa.OpSLT, isa.OpSLTI:
		return b.ZExt(b.Slt(x, y), 32)
	case isa.OpSLTU, isa.OpSLTIU:
		return b.ZExt(b.Ult(x, y), 32)
	}
	return b.Const(0, 32)
}

// branchCond is isa.Taken in the term domain: the width-1 condition
// under which branch op on rs1 = x and rs2 = y goes to its target. Any
// other op is never taken.
func branchCond(b *expr.Builder, op isa.Opcode, x, y *expr.Term) *expr.Term {
	switch op {
	case isa.OpBEQ:
		return b.Eq(x, y)
	case isa.OpBNE:
		return b.Ne(x, y)
	case isa.OpBLT:
		return b.Slt(x, y)
	case isa.OpBGE:
		return b.NotBool(b.Slt(x, y))
	case isa.OpBLTU:
		return b.Ult(x, y)
	case isa.OpBGEU:
		return b.NotBool(b.Ult(x, y))
	}
	return b.Bool(false)
}

// execLoad handles load instructions; done=true means control flow was
// already resolved (fault or MMIO handled with PC advance).
func (e *Executor) execLoad(st *State, in isa.Inst, forks *[]*State) (bool, error) {
	b := e.B
	addrT := b.Add(st.Regs[in.Rs1], b.Const(uint64(uint32(in.Imm)), 32))
	addr, err := e.concretize(st, addrT, forks)
	if err != nil || st.Status != StatusRunning {
		return true, err
	}
	size := isa.AccessSize(in.Op)
	if e.cfg.VM.InMMIO(addr, uint32(size)) {
		if e.mmio == nil {
			e.fault(st, "MMIO load at %#x with no hardware attached", addr)
			return true, nil
		}
		if size != 4 {
			e.fault(st, "MMIO load at %#x must be 32-bit", addr)
			return true, nil
		}
		v, err := e.mmio.Read(st, addr)
		if err != nil {
			e.fault(st, "MMIO read %#x: %v", addr, err)
			return true, nil
		}
		e.setReg(st, in.Rd, b.Const(uint64(v), 32))
		st.PC += 4
		return true, nil
	}
	t, err := st.Mem.Read(b, addr, size)
	if err != nil {
		st.Status = StatusFault
		st.Err = err
		return true, nil
	}
	if isa.LoadSigned(in.Op) {
		t = b.SExt(t, 32)
	} else {
		t = b.ZExt(t, 32) // a word load's term is returned as it is
	}
	e.setReg(st, in.Rd, t)
	return false, nil
}

func (e *Executor) execStore(st *State, in isa.Inst, forks *[]*State) (bool, error) {
	b := e.B
	addrT := b.Add(st.Regs[in.Rs1], b.Const(uint64(uint32(in.Imm)), 32))
	addr, err := e.concretize(st, addrT, forks)
	if err != nil || st.Status != StatusRunning {
		return true, err
	}
	size := isa.AccessSize(in.Op)
	val := st.Regs[in.Rs2]
	if e.cfg.VM.InMMIO(addr, uint32(size)) {
		if e.mmio == nil {
			e.fault(st, "MMIO store at %#x with no hardware attached", addr)
			return true, nil
		}
		if size != 4 {
			e.fault(st, "MMIO store at %#x must be 32-bit", addr)
			return true, nil
		}
		// Symbolic data crossing the boundary is concretized per the
		// policy (Section III-B).
		v, err := e.concretize(st, val, forks)
		if err != nil || st.Status != StatusRunning {
			return true, err
		}
		if err := e.mmio.Write(st, addr, v); err != nil {
			e.fault(st, "MMIO write %#x: %v", addr, err)
			return true, nil
		}
		st.PC += 4
		return true, nil
	}
	if err := st.Mem.Write(b, addr, size, b.Extract(val, 0, uint(8*size))); err != nil {
		st.Status = StatusFault
		st.Err = err
		return true, nil
	}
	return false, nil
}

// execEcall handles environment calls; stop=true means st.PC was
// resolved (or the state terminated).
func (e *Executor) execEcall(st *State, service int32, forks *[]*State) (bool, error) {
	b := e.B
	switch service {
	case isa.EcallHalt:
		st.Status = StatusHalted
		return true, nil

	case isa.EcallAbort:
		st.Status = StatusAborted
		if c := e.concolic; c != nil {
			st.Model = c.assign
			return true, nil
		}
		if ok, model := e.check(st); ok {
			st.Model = model
		}
		return true, nil

	case isa.EcallAssert:
		cond := b.Ne(st.Regs[1], b.Const(0, 32))
		if c := e.concolic; c != nil {
			if e.eval.Eval(cond, c.assign) == 0 {
				st.Status = StatusAssertFail
				st.Model = c.assign
				return true, nil
			}
			if _, ok := cond.Const(); !ok {
				st.AddConstraint(cond)
			}
			return false, nil
		}
		if v, ok := cond.Const(); ok {
			if v == 0 {
				st.Status = StatusAssertFail
				if ok, model := e.check(st); ok {
					st.Model = model
				}
				return true, nil
			}
			return false, nil
		}
		// The failing side's model is reported, so it is always queried;
		// the passing side may be decided by the witness.
		canFail, failModel := e.check(st, b.NotBool(cond))
		canPass, passModel := e.decide(st, cond)
		if canFail {
			fail := e.fork(st)
			fail.AddConstraint(b.NotBool(cond))
			fail.Witness = failModel
			fail.Status = StatusAssertFail
			fail.Model = failModel
			*forks = append(*forks, fail)
		}
		if !canPass {
			st.Status = StatusInfeasible
			return true, nil
		}
		st.AddConstraint(cond)
		st.Witness = passModel
		return false, nil

	case isa.EcallAssume:
		cond := b.Ne(st.Regs[1], b.Const(0, 32))
		if c := e.concolic; c != nil {
			if e.eval.Eval(cond, c.assign) == 0 {
				st.Status = StatusInfeasible
				return true, nil
			}
			if _, ok := cond.Const(); !ok {
				st.AddConstraint(cond)
			}
			return false, nil
		}
		if v, ok := cond.Const(); ok {
			if v == 0 {
				st.Status = StatusInfeasible
				return true, nil
			}
			return false, nil
		}
		ok, model := e.decide(st, cond)
		if !ok {
			st.Status = StatusInfeasible
			return true, nil
		}
		st.AddConstraint(cond)
		st.Witness = model
		return false, nil

	case isa.EcallMakeSymbolic:
		addr, err := e.concretize(st, st.Regs[1], forks)
		if err != nil || st.Status != StatusRunning {
			return true, err
		}
		length, err := e.concretize(st, st.Regs[2], forks)
		if err != nil || st.Status != StatusRunning {
			return true, err
		}
		tag, err := e.concretize(st, st.Regs[3], forks)
		if err != nil || st.Status != StatusRunning {
			return true, err
		}
		if !e.cfg.VM.InputFits(addr, length) {
			e.fault(st, "make_symbolic buffer of %d bytes at %#x outside RAM or over %d", length, addr, vm.MaxInput)
			return true, nil
		}
		for i := uint32(0); i < length; i++ {
			name := fmt.Sprintf("sym%d_%d", tag, i)
			if err := st.Mem.StoreByte(addr+i, b.Var(name, 8)); err != nil {
				return true, err
			}
			if c := e.concolic; c != nil {
				// Bind the fresh symbol to the concrete input byte: every
				// buffer binds to the one input, whatever its tag
				// (missing bytes default to zero, same as the solver's
				// completion of partial models).
				var bv uint64
				if i < uint32(len(c.input)) {
					bv = uint64(c.input[i])
				}
				c.assign[name] = bv
			}
		}
		st.SymInputs = append(st.SymInputs, SymInput{Tag: tag, Addr: addr, Len: length})
		return false, nil

	case isa.EcallPutChar:
		v, err := e.concretize(st, b.Extract(st.Regs[1], 0, 8), forks)
		if err != nil || st.Status != StatusRunning {
			return true, err
		}
		st.Console = append(st.Console, byte(v))
		return false, nil

	case isa.EcallPutInt:
		v, err := e.concretize(st, st.Regs[1], forks)
		if err != nil || st.Status != StatusRunning {
			return true, err
		}
		st.Console = append(st.Console, []byte(fmt.Sprintf("%d", v))...)
		return false, nil

	case isa.EcallSnapshotHint:
		return false, nil
	}
	e.fault(st, "unknown ecall %d", service)
	return true, nil
}
