// Package scanchain implements HardSnap's hardware snapshotting
// instrumentation: an AST-to-AST pass over Verilog modules that threads
// every register (and, word-by-word, every writable memory) into a
// shift register controlled by three new ports:
//
//	input  wire scan_enable
//	input  wire scan_in
//	output wire scan_out
//
// With scan_enable high, each clock cycle shifts the chain by one bit:
// scan_in enters the least significant bit of the first element, each
// element's most significant bit feeds the next element, and the last
// element's most significant bit drives scan_out. With scan_enable low
// the design behaves exactly as before. The pass operates at the RTL
// source level, so the result is independent of the downstream target
// (simulator or FPGA), exactly as in the paper (Section IV-A).
//
// Hierarchical designs are supported by daisy-chaining: child instances
// of instrumented modules become chain segments between the parent's
// local registers.
package scanchain

import (
	"cmp"
	"fmt"
	"strings"

	"hardsnap/internal/rtl"
	"hardsnap/internal/verilog"
)

// Options configures the instrumentation pass.
type Options struct {
	// Params resolves parametric memory depths; defaults come from the
	// module's own parameter declarations.
	Params map[string]uint64
	// Exclude lists register or memory names to leave out of the chain
	// (the paper's "limit the instrumentation to a sub-component").
	Exclude []string
}

// The scan ports every instrumented module gains.
const (
	enableName = "scan_enable"
	inName     = "scan_in"
	outName    = "scan_out"
)

// ElementKind distinguishes chain element types.
type ElementKind int

// Chain element kinds.
const (
	KindRegister ElementKind = iota + 1
	KindMemory
	KindInstance
)

// String names the kind.
func (k ElementKind) String() string {
	switch k {
	case KindRegister:
		return "register"
	case KindMemory:
		return "memory"
	case KindInstance:
		return "instance"
	}
	return "?"
}

// Element describes one chain segment.
type Element struct {
	Name string
	Kind ElementKind
	// Bits is the segment length (0 for instances, whose length is
	// accounted in the child module's report).
	Bits uint
	// Module is the instantiated module name (instances only).
	Module string
	// Width/Depth describe memory segments.
	Width, Depth uint
}

// Report summarizes the instrumentation of one module.
type Report struct {
	Module string
	// ChainBits is the local chain length (registers + memories,
	// excluding child instances).
	ChainBits uint
	Elements  []Element
	// OriginalLines/InstrumentedLines measure source-level overhead.
	OriginalLines     int
	InstrumentedLines int
}

// Overhead returns the added-lines ratio, the paper's instrumentation
// overhead metric.
func (r *Report) Overhead() float64 {
	if r.OriginalLines == 0 {
		return 0
	}
	return float64(r.InstrumentedLines-r.OriginalLines) / float64(r.OriginalLines)
}

// InstrumentAll instruments the module named top and, recursively,
// every module it instantiates. The file is modified in place; reports
// are keyed by module name.
func InstrumentAll(file *verilog.SourceFile, top string, opts Options) (map[string]*Report, error) {
	reports := make(map[string]*Report)
	if err := instrumentRec(file, top, opts, reports); err != nil {
		return nil, err
	}
	return reports, nil
}

func instrumentRec(file *verilog.SourceFile, name string, opts Options, reports map[string]*Report) error {
	if _, done := reports[name]; done {
		return nil
	}
	mod := file.FindModule(name)
	if mod == nil {
		return fmt.Errorf("scanchain: module %q not found", name)
	}
	// Children first, so instrumentModule can chain through them.
	for _, item := range mod.Items {
		if inst, ok := item.(*verilog.Instance); ok {
			if err := instrumentRec(file, inst.ModuleName, opts, reports); err != nil {
				return err
			}
		}
	}
	r, err := instrumentModule(file, mod, opts)
	if err != nil {
		return err
	}
	reports[name] = r
	return nil
}

type element struct {
	kind ElementKind
	name string
	bits uint
	// reg fields
	msb verilog.Expr // nil for 1-bit
	// memory fields
	depth uint
	width uint
	// instance fields
	inst *verilog.Instance
	// ff is the sequential block writing this element (nil for
	// instances).
	ff *verilog.AlwaysFF
}

func instrumentModule(file *verilog.SourceFile, mod *verilog.Module, opts Options) (*Report, error) {
	origLines := strings.Count(verilog.PrintModule(mod), "\n")
	excluded := make(map[string]bool, len(opts.Exclude))
	for _, n := range opts.Exclude {
		excluded[n] = true
	}
	params, err := rtl.ModuleParams(mod, opts.Params)
	if err != nil {
		return nil, fmt.Errorf("scanchain: %w", err)
	}
	width := func(name string, msb verilog.Expr) (uint, error) {
		if msb == nil {
			return 1, nil
		}
		v, err := rtl.ConstEval(msb, params.Param)
		if err != nil {
			return 0, fmt.Errorf("scanchain: module %s: width of %s: %v", mod.Name, name, err)
		}
		return uint(v) + 1, nil
	}

	// Index declarations.
	type declInfo struct {
		msb   verilog.Expr
		isMem bool
		depth uint
		width uint
	}
	decls := make(map[string]*declInfo)
	for _, port := range mod.Ports {
		decls[port.Name] = &declInfo{msb: port.MSB}
	}
	for _, item := range mod.Items {
		nd, ok := item.(*verilog.NetDecl)
		if !ok {
			continue
		}
		for _, dn := range nd.Names {
			info := &declInfo{msb: nd.MSB}
			if dn.ArrMSB != nil {
				info.isMem = true
				// Memories are declared [0:N]; the depth bound is the
				// larger of the two range values.
				b1, err := rtl.ConstEval(dn.ArrMSB, params.Param)
				b2, err2 := rtl.ConstEval(dn.ArrLSB, params.Param)
				if err = cmp.Or(err, err2); err != nil {
					return nil, fmt.Errorf("scanchain: module %s: memory %s depth: %v", mod.Name, dn.Name, err)
				}
				info.depth = uint(max(b1, b2)) + 1
				if info.width, err = width(dn.Name, nd.MSB); err != nil {
					return nil, err
				}
			}
			decls[dn.Name] = info
		}
	}

	// Discover chain elements in deterministic order: walk items;
	// sequential blocks contribute their written registers/memories in
	// first-write order; instances of instrumented modules contribute a
	// segment.
	var elements []element
	seen := make(map[string]bool)
	for _, item := range mod.Items {
		switch it := item.(type) {
		case *verilog.AlwaysFF:
			for _, n := range verilog.Targets(it.Body) {
				if seen[n] || excluded[n] {
					continue
				}
				seen[n] = true
				info := decls[n]
				if info == nil {
					return nil, fmt.Errorf("scanchain: module %s: unknown register %q", mod.Name, n)
				}
				if info.isMem {
					elements = append(elements, element{
						kind: KindMemory, name: n, bits: info.width * info.depth,
						depth: info.depth, width: info.width, msb: info.msb, ff: it,
					})
				} else {
					bits, err := width(n, info.msb)
					if err != nil {
						return nil, err
					}
					msb := info.msb
					if bits == 1 {
						msb = nil // a [0:0] register shifts as a 1-bit one
					}
					elements = append(elements, element{
						kind: KindRegister, name: n, bits: bits, msb: msb, ff: it,
					})
				}
			}
		case *verilog.Instance:
			child := file.FindModule(it.ModuleName)
			if child == nil {
				return nil, fmt.Errorf("scanchain: module %s instantiates unknown %q", mod.Name, it.ModuleName)
			}
			if !hasPort(child, inName) {
				continue // child not instrumented (e.g. stateless)
			}
			if excluded[it.Name] {
				// Excluded children still need their scan inputs tied off.
				it.Conns[enableName] = &verilog.Number{Value: 0, Width: 1, Text: "1'b0"}
				it.Conns[inName] = &verilog.Number{Value: 0, Width: 1, Text: "1'b0"}
				continue
			}
			elements = append(elements, element{kind: KindInstance, name: it.Name, inst: it})
		}
	}

	// Add scan ports.
	if hasPort(mod, inName) {
		return nil, fmt.Errorf("scanchain: module %s is already instrumented", mod.Name)
	}
	mod.Ports = append(mod.Ports,
		&verilog.Port{Dir: verilog.DirInput, Name: enableName},
		&verilog.Port{Dir: verilog.DirInput, Name: inName},
		&verilog.Port{Dir: verilog.DirOutput, Name: outName},
	)

	report := &Report{Module: mod.Name}

	// Build the chain.
	prev := verilog.Expr(&verilog.Ident{Name: inName})
	shiftStmts := make(map[*verilog.AlwaysFF][]verilog.Stmt)
	for i := range elements {
		el := &elements[i]
		switch el.kind {
		case KindRegister:
			shiftStmts[el.ff] = append(shiftStmts[el.ff], regShift(el.name, el.msb, prev))
			prev = regMSB(el.name, el.msb)
			report.ChainBits += el.bits
			report.Elements = append(report.Elements, Element{Name: el.name, Kind: KindRegister, Bits: el.bits})

		case KindMemory:
			for w := uint(0); w < el.depth; w++ {
				lhs := &verilog.Index{
					X:   &verilog.Ident{Name: el.name},
					Idx: &verilog.Number{Value: uint64(w), Width: 32},
				}
				shiftStmts[el.ff] = append(shiftStmts[el.ff], wordShift(lhs, el.width, prev))
				prev = wordMSB(lhs, el.width)
			}
			report.ChainBits += el.bits
			report.Elements = append(report.Elements, Element{Name: el.name, Kind: KindMemory, Bits: el.bits, Width: el.width, Depth: el.depth})

		case KindInstance:
			outWire := el.inst.Name + "_" + outName
			// wire <inst>_scan_out;
			mod.Items = append(mod.Items, &verilog.NetDecl{
				Names: []verilog.DeclName{{Name: outWire}},
			})
			el.inst.Conns[enableName] = &verilog.Ident{Name: enableName}
			el.inst.Conns[inName] = prev
			el.inst.Conns[outName] = &verilog.Ident{Name: outWire}
			prev = &verilog.Ident{Name: outWire}
			report.Elements = append(report.Elements, Element{Name: el.name, Kind: KindInstance, Module: el.inst.ModuleName})
		}
	}

	// scan_out follows the last element (or scan_in for stateless
	// modules, making the module a transparent chain segment).
	mod.Items = append(mod.Items, &verilog.Assign{
		LHS: &verilog.Ident{Name: outName},
		RHS: prev,
	})

	// Wrap each sequential block: if (scan_enable) <shifts> else <orig>.
	for _, item := range mod.Items {
		ff, ok := item.(*verilog.AlwaysFF)
		if !ok {
			continue
		}
		shifts := shiftStmts[ff]
		if len(shifts) == 0 {
			continue
		}
		ff.Body = &verilog.If{
			Cond: &verilog.Ident{Name: enableName},
			Then: &verilog.Block{Stmts: shifts},
			Else: ff.Body,
		}
	}

	report.OriginalLines = origLines
	report.InstrumentedLines = strings.Count(verilog.PrintModule(mod), "\n")
	return report, nil
}

// regShift builds "r <= {r[MSB-1:0], prev}" (or "r <= prev" for 1-bit).
func regShift(name string, msb verilog.Expr, prev verilog.Expr) verilog.Stmt {
	lhs := &verilog.Ident{Name: name}
	if msb == nil {
		return &verilog.NonBlocking{LHS: lhs, RHS: prev}
	}
	return &verilog.NonBlocking{
		LHS: lhs,
		RHS: &verilog.Concat{Parts: []verilog.Expr{
			&verilog.RangeSel{
				X:   &verilog.Ident{Name: name},
				MSB: &verilog.Binary{Op: "-", X: msb, Y: &verilog.Number{Value: 1, Width: 32}},
				LSB: &verilog.Number{Value: 0, Width: 32},
			},
			prev,
		}},
	}
}

// regMSB builds "r[MSB]" (or "r" for 1-bit).
func regMSB(name string, msb verilog.Expr) verilog.Expr {
	if msb == nil {
		return &verilog.Ident{Name: name}
	}
	return &verilog.Index{X: &verilog.Ident{Name: name}, Idx: msb}
}

// wordShift builds "mem[i] <= {mem[i][W-2:0], prev}" for a memory word.
func wordShift(lhs *verilog.Index, width uint, prev verilog.Expr) verilog.Stmt {
	if width == 1 {
		return &verilog.NonBlocking{LHS: lhs, RHS: prev}
	}
	return &verilog.NonBlocking{
		LHS: lhs,
		RHS: &verilog.Concat{Parts: []verilog.Expr{
			&verilog.RangeSel{
				X:   &verilog.Index{X: lhs.X, Idx: lhs.Idx},
				MSB: &verilog.Number{Value: uint64(width - 2), Width: 32},
				LSB: &verilog.Number{Value: 0, Width: 32},
			},
			prev,
		}},
	}
}

// wordMSB builds "mem[i][W-1]".
func wordMSB(lhs *verilog.Index, width uint) verilog.Expr {
	if width == 1 {
		return &verilog.Index{X: lhs.X, Idx: lhs.Idx}
	}
	return &verilog.Index{
		X:   &verilog.Index{X: lhs.X, Idx: lhs.Idx},
		Idx: &verilog.Number{Value: uint64(width - 1), Width: 32},
	}
}

func hasPort(m *verilog.Module, name string) bool {
	for _, p := range m.Ports {
		if p.Name == name {
			return true
		}
	}
	return false
}
