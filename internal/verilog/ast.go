package verilog

import "slices"

// SourceFile is a parsed Verilog file: an ordered list of modules.
type SourceFile struct {
	Modules []*Module
}

// FindModule returns the module with the given name, or nil.
func (f *SourceFile) FindModule(name string) *Module {
	for _, m := range f.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// PortDir is a port direction.
type PortDir int

// Port directions.
const (
	DirInput PortDir = iota + 1
	DirOutput
	DirInout
)

// String returns the Verilog keyword for the direction.
func (d PortDir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	case DirInout:
		return "inout"
	}
	return "?"
}

// Module is a Verilog module declaration.
type Module struct {
	Name   string
	Params []*Param
	Ports  []*Port
	Items  []Item
	Line   int
}

// Param is a module parameter or localparam.
type Param struct {
	Name    string
	Value   Expr
	IsLocal bool
	Line    int
}

// Port is an ANSI-style module port.
type Port struct {
	Dir   PortDir
	IsReg bool
	// MSB/LSB are the range bounds; both nil for a 1-bit port.
	MSB, LSB Expr
	Name     string
	Line     int
}

// Item is a module-level item.
type Item interface{ isItem() }

// NetDecl declares one or more wires or regs, optionally with a packed
// range and (for memories) an unpacked array range.
type NetDecl struct {
	IsReg    bool
	MSB, LSB Expr // packed range, nil for 1-bit
	Names    []DeclName
	Line     int
}

// DeclName is one declarator within a NetDecl.
type DeclName struct {
	Name string
	// ArrMSB/ArrLSB give the memory bounds (reg [7:0] m [0:255]).
	ArrMSB, ArrLSB Expr
	// Init is the initializer of "wire x = expr;".
	Init Expr
}

// Assign is a continuous assignment: assign lhs = rhs.
type Assign struct {
	LHS  Expr // Ident, Index or RangeSel
	RHS  Expr
	Line int
}

// AlwaysFF is an always @(posedge clk) block.
type AlwaysFF struct {
	Clock string // clock signal name
	Body  Stmt
	Line  int
}

// AlwaysComb is an always @(*) block.
type AlwaysComb struct {
	Body Stmt
	Line int
}

// Instance is a module instantiation with named port connections.
type Instance struct {
	ModuleName string
	Name       string
	// ParamOverrides holds #(.NAME(expr)) overrides.
	ParamOverrides map[string]Expr
	// Conns maps formal port name -> actual expression (nil for
	// unconnected ports).
	Conns map[string]Expr
	Line  int
}

// ParamItem is a parameter declared in the module body.
type ParamItem struct {
	Param *Param
}

func (*NetDecl) isItem()    {}
func (*Assign) isItem()     {}
func (*AlwaysFF) isItem()   {}
func (*AlwaysComb) isItem() {}
func (*Instance) isItem()   {}
func (*ParamItem) isItem()  {}

// Stmt is a procedural statement.
type Stmt interface{ isStmt() }

// Block is a begin/end statement list.
type Block struct {
	Stmts []Stmt
}

// If is an if/else statement (Else may be nil).
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt
}

// Case is a case statement. Items with nil Labels form the default.
type Case struct {
	Subject Expr
	Items   []CaseItem
}

// CaseItem is one arm of a case statement.
type CaseItem struct {
	Labels []Expr // nil for default
	Body   Stmt
}

// NonBlocking is "lhs <= rhs" inside always @(posedge clk).
type NonBlocking struct {
	LHS Expr
	RHS Expr
}

// Blocking is "lhs = rhs" inside always @(*).
type Blocking struct {
	LHS Expr
	RHS Expr
}

func (*Block) isStmt()       {}
func (*If) isStmt()          {}
func (*Case) isStmt()        {}
func (*NonBlocking) isStmt() {}
func (*Blocking) isStmt()    {}

// Expr is an expression node.
type Expr interface{ isExpr() }

// Ident references a signal or parameter.
type Ident struct {
	Name string
}

// Number is a literal; Width == 0 means unsized (treated as 32 bits).
type Number struct {
	Value uint64
	Width uint
	Text  string // original spelling, for the printer
}

// Unary applies an operator: ~ ! - & | ^ (last three are reductions).
type Unary struct {
	Op string
	X  Expr
}

// Binary applies a binary operator.
type Binary struct {
	Op   string
	X, Y Expr
}

// Ternary is cond ? a : b.
type Ternary struct {
	Cond, Then, Else Expr
}

// Index is a bit-select or memory element select: x[i].
type Index struct {
	X   Expr // Ident (possibly a memory)
	Idx Expr
}

// RangeSel is a constant part-select: x[msb:lsb].
type RangeSel struct {
	X        Expr
	MSB, LSB Expr
}

// Concat is {a, b, c}.
type Concat struct {
	Parts []Expr
}

// Repeat is {n{x}}.
type Repeat struct {
	Count Expr
	X     Expr
}

func (*Ident) isExpr()    {}
func (*Number) isExpr()   {}
func (*Unary) isExpr()    {}
func (*Binary) isExpr()   {}
func (*Ternary) isExpr()  {}
func (*Index) isExpr()    {}
func (*RangeSel) isExpr() {}
func (*Concat) isExpr()   {}
func (*Repeat) isExpr()   {}

// Targets lists the base name of every lvalue s assigns (the register,
// wire or memory, not the bit or word), each once, in first-write
// order.
func Targets(s Stmt) []string {
	var out []string
	var walk func(node any) // a statement, or an lvalue
	walk = func(node any) {
		switch x := node.(type) {
		case *Block:
			for _, sub := range x.Stmts {
				walk(sub)
			}
		case *If:
			walk(x.Then)
			walk(x.Else)
		case *Case:
			for _, item := range x.Items {
				walk(item.Body)
			}
		case *NonBlocking:
			walk(x.LHS)
		case *Blocking:
			walk(x.LHS)
		case *Ident:
			if !slices.Contains(out, x.Name) {
				out = append(out, x.Name)
			}
		case *Index:
			walk(x.X)
		case *RangeSel:
			walk(x.X)
		case *Concat:
			for _, p := range x.Parts {
				walk(p)
			}
		}
	}
	walk(s)
	return out
}
