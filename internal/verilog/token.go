// Package verilog implements a lexer, parser, AST and printer for the
// synthesizable Verilog-2005 subset HardSnap's peripherals are written
// in. The subset covers: module declarations with parameters and ANSI
// ports, wire/reg declarations (including memories), continuous
// assignments, always @(posedge clk) and always @(*) blocks,
// if/else/case statements, module instantiation with named port
// connections, and the usual expression operators.
//
// Semantics are two-state (no X/Z) with 64-bit internal arithmetic;
// values are masked to the declared signal width on assignment. This
// matches the needs of cycle-accurate co-simulation; see DESIGN.md for
// the substitution rationale.
package verilog

import "fmt"

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber // possibly sized: 8'hFF, 4'b1010, 12, 'h3F
	tokString
	tokPunct   // single/multi char operator or punctuation
	tokKeyword // reserved word
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"module": true, "endmodule": true, "input": true, "output": true,
	"inout": true, "wire": true, "reg": true, "assign": true,
	"always": true, "begin": true, "end": true, "if": true, "else": true,
	"case": true, "casez": true, "endcase": true, "default": true,
	"posedge": true, "negedge": true, "parameter": true,
	"localparam": true, "integer": true, "for": true, "function": true,
	"endfunction": true, "initial": true, "generate": true,
	"endgenerate": true, "genvar": true,
}

// multi-char punctuation, longest first.
var punctuations = []string{
	"<<<", ">>>", "===", "!==",
	"<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "+:", "-:",
	"(", ")", "[", "]", "{", "}", ";", ",", ".", ":", "?", "@", "#",
	"=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(format string, args ...any) error {
	return &ParseError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByteAt(1) == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByteAt(1) == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.peekByteAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		case c == '`':
			// Ignore compiler directives to end of line (`timescale...).
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	// '.' is allowed inside identifiers to support hierarchical
	// references (u0.state) in property expressions; it cannot start
	// one, so port-connection syntax (.clk(...)) is unaffected.
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNumCont(c byte) bool {
	return isDigit(c) || c == '_' || (c >= 'a' && c <= 'f') ||
		(c >= 'A' && c <= 'F') || c == 'x' || c == 'X' || c == 'z' || c == 'Z'
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	startLine, startCol := l.line, l.col
	c := l.peekByte()

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: startLine, col: startCol}, nil

	case isDigit(c) || c == '\'':
		start := l.pos
		for l.pos < len(l.src) && (isDigit(l.peekByte()) || l.peekByte() == '_') {
			l.advance()
		}
		// Optional base part: 'h 'd 'b 'o with value digits.
		if l.peekByte() == '\'' {
			l.advance()
			if b := l.peekByte(); b == 's' || b == 'S' {
				l.advance() // signed marker, accepted and ignored
			}
			base := l.peekByte()
			switch base {
			case 'h', 'H', 'd', 'D', 'b', 'B', 'o', 'O':
				l.advance()
			default:
				return token{}, l.errorf("bad number base %q", string(base))
			}
			for l.pos < len(l.src) && isNumCont(l.peekByte()) {
				l.advance()
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], line: startLine, col: startCol}, nil

	case c == '"':
		l.advance()
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '"' {
			if l.peekByte() == '\\' {
				l.advance()
			}
			l.advance()
		}
		if l.pos >= len(l.src) {
			return token{}, l.errorf("unterminated string")
		}
		text := l.src[start:l.pos]
		l.advance()
		return token{kind: tokString, text: text, line: startLine, col: startCol}, nil
	}

	for _, p := range punctuations {
		if len(l.src)-l.pos >= len(p) && l.src[l.pos:l.pos+len(p)] == p {
			for range p {
				l.advance()
			}
			return token{kind: tokPunct, text: p, line: startLine, col: startCol}, nil
		}
	}
	return token{}, l.errorf("unexpected character %q", string(c))
}

// lexAll tokenizes the whole source.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
