package rtl

import (
	"fmt"
	"sort"
	"strings"

	"hardsnap/internal/verilog"
)

// Elaborate flattens the design rooted at module top. Parameter
// overrides apply to the top module; instances apply their own
// overrides.
func Elaborate(file *verilog.SourceFile, top string, overrides map[string]uint64) (*Design, error) {
	mod := file.FindModule(top)
	if mod == nil {
		return nil, fmt.Errorf("rtl: top module %q not found", top)
	}
	e := &elaborator{
		file:     file,
		wideFree: make(map[*verilog.Module]bool),
		d: &Design{
			Top:       top,
			byName:    make(map[string]*Signal),
			memByName: make(map[string]*Memory),
		},
	}
	scope, err := e.instantiate(mod, "", overrides, true)
	if err != nil {
		return nil, err
	}
	_ = scope
	if err := e.resolveClock(); err != nil {
		return nil, err
	}
	if err := e.checkDrivers(); err != nil {
		return nil, err
	}
	if err := e.schedule(); err != nil {
		return nil, err
	}
	return e.d, nil
}

type elaborator struct {
	file *verilog.SourceFile
	d    *Design
	// seqClocks records, per sequential block, the resolved clock signal.
	seqClocks []*Signal
	depth     int
	// wideFree holds the modules whose instance with default
	// parameters refuseWide passed.
	wideFree map[*verilog.Module]bool
}

const maxHierarchyDepth = 64

func (e *elaborator) errf(mod string, line int, format string, args ...any) error {
	return &Error{Module: mod, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ModuleParams is a scope that resolves the parameters of mod and
// nothing else. It takes them in order, header first and then body: an
// override replaces the default of a parameter that is not local, and
// every other value is folded over the parameters before it.
func ModuleParams(mod *verilog.Module, overrides map[string]uint64) (*Scope, error) {
	scope := &Scope{params: make(map[string]uint64)}
	all := mod.Params
	for _, item := range mod.Items {
		if pi, ok := item.(*verilog.ParamItem); ok {
			all = append(all[:len(all):len(all)], pi.Param)
		}
	}
	for _, p := range all {
		v, ok := overrides[p.Name]
		if !ok || p.IsLocal {
			var err error
			if v, err = ConstEval(p.Value, scope.Param); err != nil {
				return nil, &Error{Module: mod.Name, Msg: fmt.Sprintf("parameter %s: %s", p.Name, strings.TrimPrefix(err.Error(), "rtl: "))}
			}
		}
		scope.params[p.Name] = v
	}
	return scope, nil
}

// fold evaluates a constant expression of module mod.
func (e *elaborator) fold(x verilog.Expr, scope *Scope, mod string) (uint64, error) {
	v, err := ConstEval(x, scope.Param)
	if err != nil {
		return 0, e.errf(mod, 0, "%s", strings.TrimPrefix(err.Error(), "rtl: "))
	}
	return v, nil
}

func (e *elaborator) newSignal(name string, width uint) *Signal {
	s := &Signal{ID: len(e.d.Signals), Name: name, Width: width}
	e.d.Signals = append(e.d.Signals, s)
	e.d.byName[name] = s
	return s
}

func (e *elaborator) newMemory(name string, width, depth uint) *Memory {
	m := &Memory{ID: len(e.d.Memories), Name: name, Width: width, Depth: depth}
	e.d.Memories = append(e.d.Memories, m)
	e.d.memByName[name] = m
	return m
}

// instantiate elaborates one module instance under the given
// hierarchical prefix ("" for top).
func (e *elaborator) instantiate(mod *verilog.Module, prefix string, overrides map[string]uint64, isTop bool) (*Scope, error) {
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > maxHierarchyDepth {
		return nil, e.errf(mod.Name, mod.Line, "hierarchy deeper than %d (recursive instantiation?)", maxHierarchyDepth)
	}

	scope, err := ModuleParams(mod, overrides)
	if err != nil {
		return nil, err
	}
	scope.prefix = prefix
	scope.signals, scope.memories = make(map[string]*Signal), make(map[string]*Memory)
	full := func(name string) string {
		if prefix == "" {
			return name
		}
		return prefix + "." + name
	}

	declWidth := func(msb, lsb verilog.Expr, line int) (uint, error) {
		if msb == nil {
			return 1, nil
		}
		hi, err := e.fold(msb, scope, mod.Name)
		if err != nil {
			return 0, err
		}
		lo, err := e.fold(lsb, scope, mod.Name)
		if err != nil {
			return 0, err
		}
		if lo != 0 {
			return 0, e.errf(mod.Name, line, "only [N:0] ranges are supported (got [%d:%d])", hi, lo)
		}
		w := uint(hi) + 1
		if w == 0 || w > 64 {
			return 0, e.errf(mod.Name, line, "width %d out of range (1..64)", w)
		}
		return w, nil
	}

	// Ports become signals.
	for _, port := range mod.Ports {
		if port.Dir == verilog.DirInout {
			return nil, e.errf(mod.Name, port.Line, "inout ports are not supported")
		}
		w, err := declWidth(port.MSB, port.LSB, port.Line)
		if err != nil {
			return nil, err
		}
		sig := e.newSignal(full(port.Name), w)
		sig.IsReg = false // even "output reg" is comb-or-seq driven; IsReg set by seq scan
		if isTop {
			if port.Dir == verilog.DirInput {
				sig.IsInput = true
				e.d.Inputs = append(e.d.Inputs, sig)
			} else {
				sig.IsOutput = true
				e.d.Outputs = append(e.d.Outputs, sig)
			}
		}
		scope.signals[port.Name] = sig
	}

	// First pass over items: declarations (so instances and always
	// blocks can reference signals declared later).
	for _, item := range mod.Items {
		switch it := item.(type) {
		case *verilog.NetDecl:
			w, err := declWidth(it.MSB, it.LSB, it.Line)
			if err != nil {
				return nil, err
			}
			for _, dn := range it.Names {
				if _, dup := scope.signals[dn.Name]; dup {
					return nil, e.errf(mod.Name, it.Line, "signal %q redeclared", dn.Name)
				}
				if dn.ArrMSB != nil {
					if !it.IsReg {
						return nil, e.errf(mod.Name, it.Line, "memory %q must be a reg", dn.Name)
					}
					if dn.Init != nil {
						return nil, e.errf(mod.Name, it.Line, "memory %q cannot have an initializer", dn.Name)
					}
					hi, err := e.fold(dn.ArrMSB, scope, mod.Name)
					if err != nil {
						return nil, err
					}
					lo, err := e.fold(dn.ArrLSB, scope, mod.Name)
					if err != nil {
						return nil, err
					}
					if hi < lo {
						hi, lo = lo, hi
					}
					if lo != 0 {
						return nil, e.errf(mod.Name, it.Line, "memory %q must use [0:N] bounds", dn.Name)
					}
					depth := uint(hi) + 1
					if depth == 0 || depth > 1<<20 {
						return nil, e.errf(mod.Name, it.Line, "memory %q depth %d out of range", dn.Name, depth)
					}
					scope.memories[dn.Name] = e.newMemory(full(dn.Name), w, depth)
					continue
				}
				scope.signals[dn.Name] = e.newSignal(full(dn.Name), w)
			}
		}
	}

	if err := e.refuseWide(mod, scope, len(overrides) == 0); err != nil {
		return nil, err
	}
	// Second pass: behaviour.
	for _, item := range mod.Items {
		switch it := item.(type) {
		case *verilog.NetDecl:
			// Wire initializers become continuous assignments.
			for _, dn := range it.Names {
				if dn.Init == nil {
					continue
				}
				if it.IsReg {
					return nil, e.errf(mod.Name, it.Line, "reg initializers are not supported (use a reset)")
				}
				e.d.Combs = append(e.d.Combs, &CombNode{
					Assign: &verilog.Assign{
						LHS:  &verilog.Ident{Name: dn.Name},
						RHS:  dn.Init,
						Line: it.Line,
					},
					Scope: scope,
				})
			}

		case *verilog.Assign:
			e.d.Combs = append(e.d.Combs, &CombNode{Assign: it, Scope: scope})

		case *verilog.AlwaysComb:
			e.d.Combs = append(e.d.Combs, &CombNode{Block: it.Body, Scope: scope})

		case *verilog.AlwaysFF:
			clk, ok := scope.signals[it.Clock]
			if !ok {
				return nil, e.errf(mod.Name, it.Line, "unknown clock signal %q", it.Clock)
			}
			e.d.Seqs = append(e.d.Seqs, &SeqBlock{Body: it.Body, Scope: scope})
			e.seqClocks = append(e.seqClocks, clk)
			// Every nonblocking target becomes a register.
			if err := e.markRegs(it.Body, scope, mod.Name, it.Line); err != nil {
				return nil, err
			}

		case *verilog.Instance:
			child := e.file.FindModule(it.ModuleName)
			if child == nil {
				return nil, e.errf(mod.Name, it.Line, "unknown module %q", it.ModuleName)
			}
			childOverrides := make(map[string]uint64, len(it.ParamOverrides))
			for name, expr := range it.ParamOverrides {
				v, err := e.fold(expr, scope, mod.Name)
				if err != nil {
					return nil, err
				}
				childOverrides[name] = v
			}
			childScope, err := e.instantiate(child, full(it.Name), childOverrides, false)
			if err != nil {
				return nil, err
			}
			if err := e.connectPorts(it, child, scope, childScope, mod.Name); err != nil {
				return nil, err
			}
		}
	}
	return scope, nil
}

// connectPorts binds instance ports to parent expressions via
// synthetic continuous assignments.
func (e *elaborator) connectPorts(inst *verilog.Instance, child *verilog.Module, parent, childScope *Scope, parentMod string) error {
	seen := make(map[string]bool, len(inst.Conns))
	for name := range inst.Conns {
		seen[name] = false
	}
	for _, port := range child.Ports {
		actual, connected := inst.Conns[port.Name]
		if connected {
			seen[port.Name] = true
		}
		if !connected || actual == nil {
			// Unconnected input reads as constant zero; unconnected
			// outputs simply float (nothing reads them).
			if port.Dir == verilog.DirInput {
				e.d.Combs = append(e.d.Combs, &CombNode{
					Assign: &verilog.Assign{
						LHS: &verilog.Ident{Name: port.Name},
						RHS: &verilog.Number{Value: 0, Width: 1},
					},
					Scope: childScope,
				})
			}
			continue
		}
		switch port.Dir {
		case verilog.DirInput:
			// child.port = parent actual. The LHS gets a private alias
			// so a parent signal with the same name as the port (the
			// common ".clk(clk)" case) still resolves to the parent.
			childSig, ok := childScope.signals[port.Name]
			if !ok {
				return e.errf(parentMod, inst.Line, "internal: missing child port %q", port.Name)
			}
			lhsName := "\x00in:" + port.Name
			sigMap := make(map[string]*Signal, len(parent.signals)+1)
			for k, v := range parent.signals {
				sigMap[k] = v
			}
			sigMap[lhsName] = childSig
			e.d.Combs = append(e.d.Combs, &CombNode{
				Assign: &verilog.Assign{
					LHS: &verilog.Ident{Name: lhsName},
					RHS: actual,
				},
				Scope: &Scope{
					prefix:   parent.prefix,
					params:   parent.params,
					signals:  sigMap,
					memories: parent.memories,
				},
			})
		case verilog.DirOutput:
			// parent actual = child.port. Actual must be an lvalue.
			if !isLValue(actual) {
				return e.errf(parentMod, inst.Line, "output port .%s must connect to an lvalue", port.Name)
			}
			childSig, ok := childScope.signals[port.Name]
			if !ok {
				return e.errf(parentMod, inst.Line, "internal: missing child port %q", port.Name)
			}
			rhsName := "\x00out:" + port.Name // private alias, cannot clash
			sigMap := make(map[string]*Signal, len(parent.signals)+1)
			for k, v := range parent.signals {
				sigMap[k] = v
			}
			sigMap[rhsName] = childSig
			e.d.Combs = append(e.d.Combs, &CombNode{
				Assign: &verilog.Assign{
					LHS: actual,
					RHS: &verilog.Ident{Name: rhsName},
				},
				Scope: &Scope{
					prefix:   parent.prefix,
					params:   parent.params,
					signals:  sigMap,
					memories: parent.memories,
				},
			})
		default:
			return e.errf(parentMod, inst.Line, "unsupported port direction on .%s", port.Name)
		}
	}
	for name, ok := range seen {
		if !ok {
			return e.errf(parentMod, inst.Line, "connection to unknown port .%s", name)
		}
	}
	return nil
}

// refuseWide fails elaboration on the first concatenation or repeat
// wider than 64 bits that an item of mod reads or writes, naming the
// module and the item's line. Widths depend only on the parameters, so
// a module instantiated with its defaults is checked once.
func (e *elaborator) refuseWide(mod *verilog.Module, scope *Scope, defaults bool) error {
	if defaults && e.wideFree[mod] {
		return nil
	}
	for _, item := range mod.Items {
		line := 0
		switch it := item.(type) {
		case *verilog.NetDecl:
			line = it.Line
		case *verilog.Assign:
			line = it.Line
		case *verilog.AlwaysComb:
			line = it.Line
		case *verilog.AlwaysFF:
			line = it.Line
		case *verilog.Instance:
			line = it.Line
		}
		if err := firstWide(item, scope); err != nil {
			return e.errf(mod.Name, line, "%s", string(err.(wideError)))
		}
	}
	if defaults {
		e.wideFree[mod] = true
	}
	return nil
}

// firstWide returns the walker's wideError for the first concatenation
// or repeat wider than 64 bits in n, a module item, a statement or an
// expression, innermost first; nil if there is none. Every node is
// sized on its own, so an arm the walker would not size (the untaken
// arm of a constant ?:) is checked too.
func firstWide(n any, scope *Scope) (err error) {
	var sized verilog.Expr
	walk := func(kids ...any) {
		for _, k := range kids {
			if err == nil {
				err = firstWide(k, scope)
			}
		}
	}
	switch v := n.(type) {
	case *verilog.NetDecl:
		for _, dn := range v.Names {
			walk(dn.Init)
		}
	case *verilog.Assign:
		walk(v.LHS, v.RHS)
	case *verilog.AlwaysComb:
		walk(v.Body)
	case *verilog.AlwaysFF:
		walk(v.Body)
	case *verilog.Instance:
		ports := make([]string, 0, len(v.Conns))
		for port := range v.Conns {
			ports = append(ports, port)
		}
		sort.Strings(ports)
		for _, port := range ports {
			walk(v.Conns[port])
		}
	case *verilog.Block:
		for _, st := range v.Stmts {
			walk(st)
		}
	case *verilog.If:
		walk(v.Cond, v.Then, v.Else)
	case *verilog.Case:
		walk(v.Subject)
		for _, item := range v.Items {
			for _, l := range item.Labels {
				walk(l)
			}
			walk(item.Body)
		}
	case *verilog.NonBlocking:
		walk(v.LHS, v.RHS)
	case *verilog.Blocking:
		walk(v.LHS, v.RHS)
	case *verilog.Unary:
		walk(v.X)
	case *verilog.Binary:
		walk(v.X, v.Y)
	case *verilog.Ternary:
		walk(v.Cond, v.Then, v.Else)
	case *verilog.Index:
		walk(v.X, v.Idx)
	case *verilog.RangeSel:
		walk(v.X)
	case *verilog.Repeat:
		walk(v.X)
		sized = v
	case *verilog.Concat:
		for _, p := range v.Parts {
			walk(p)
		}
		sized = v
	}
	if sized != nil && err == nil {
		if _, werr := WidthOf(sized, scope); werr != nil {
			if we, ok := werr.(wideError); ok {
				err = we
			}
		}
	}
	return err
}

func isLValue(e verilog.Expr) bool {
	switch x := e.(type) {
	case *verilog.Ident:
		return true
	case *verilog.Index:
		return isLValue(x.X)
	case *verilog.RangeSel:
		return isLValue(x.X)
	case *verilog.Concat:
		for _, p := range x.Parts {
			if !isLValue(p) {
				return false
			}
		}
		return true
	}
	return false
}

// markRegs walks a sequential body and flags every nonblocking target
// as a register (or validates memory writes).
func (e *elaborator) markRegs(s verilog.Stmt, scope *Scope, mod string, line int) error {
	switch st := s.(type) {
	case *verilog.Block:
		for _, sub := range st.Stmts {
			if err := e.markRegs(sub, scope, mod, line); err != nil {
				return err
			}
		}
	case *verilog.If:
		if err := e.markRegs(st.Then, scope, mod, line); err != nil {
			return err
		}
		if st.Else != nil {
			return e.markRegs(st.Else, scope, mod, line)
		}
	case *verilog.Case:
		for _, item := range st.Items {
			if err := e.markRegs(item.Body, scope, mod, line); err != nil {
				return err
			}
		}
	case *verilog.NonBlocking:
		return e.markRegTarget(st.LHS, scope, mod, line)
	case *verilog.Blocking:
		return e.errf(mod, line, "blocking assignment inside always @(posedge); use <=")
	}
	return nil
}

func (e *elaborator) markRegTarget(lhs verilog.Expr, scope *Scope, mod string, line int) error {
	switch x := lhs.(type) {
	case *verilog.Ident:
		sig, ok := scope.signals[x.Name]
		if !ok {
			if _, isMem := scope.memories[x.Name]; isMem {
				return e.errf(mod, line, "memory %q must be written element-wise", x.Name)
			}
			return e.errf(mod, line, "unknown signal %q", x.Name)
		}
		sig.IsReg = true
		return nil
	case *verilog.Index:
		base, ok := x.X.(*verilog.Ident)
		if !ok {
			return e.errf(mod, line, "unsupported nested index in sequential lvalue")
		}
		if _, isMem := scope.memories[base.Name]; isMem {
			return nil // memory element write
		}
		return e.markRegTarget(base, scope, mod, line)
	case *verilog.RangeSel:
		return e.markRegTarget(x.X, scope, mod, line)
	case *verilog.Concat:
		for _, p := range x.Parts {
			if err := e.markRegTarget(p, scope, mod, line); err != nil {
				return err
			}
		}
		return nil
	}
	return e.errf(mod, line, "unsupported sequential lvalue")
}

// resolveClock checks that all sequential blocks share one top-level
// clock.
func (e *elaborator) resolveClock() error {
	if len(e.seqClocks) == 0 {
		return nil
	}
	// All clock signals must ultimately be the same top input. We
	// accept clocks that are direct port connections: the comb nodes
	// introduced by connectPorts alias child clk to the parent's. For
	// simplicity we require each seq clock to resolve, through alias
	// nodes, to a top-level input.
	aliases := make(map[int]int) // child signal ID -> parent signal ID
	for _, c := range e.d.Combs {
		if c.Assign == nil {
			continue
		}
		lhs, ok := c.Assign.LHS.(*verilog.Ident)
		if !ok {
			continue
		}
		rhs, ok := c.Assign.RHS.(*verilog.Ident)
		if !ok {
			continue
		}
		l, lok := c.Scope.signals[lhs.Name]
		r, rok := c.Scope.signals[rhs.Name]
		if lok && rok {
			aliases[l.ID] = r.ID
		}
	}
	root := func(s *Signal) *Signal {
		id := s.ID
		for i := 0; i < maxHierarchyDepth; i++ {
			next, ok := aliases[id]
			if !ok {
				break
			}
			id = next
		}
		return e.d.Signals[id]
	}
	var clock *Signal
	for _, c := range e.seqClocks {
		r := root(c)
		if clock == nil {
			clock = r
			continue
		}
		if r != clock {
			return fmt.Errorf("rtl: multiple clock domains (%s vs %s); single-clock designs only", clock.Name, r.Name)
		}
	}
	if clock != nil && !clock.IsInput {
		return fmt.Errorf("rtl: clock %s must be a top-level input", clock.Name)
	}
	e.d.Clock = clock
	return nil
}
