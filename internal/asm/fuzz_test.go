package asm

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hardsnap/internal/testseed"
)

// firmwareSeeds collects every raw string literal holding a `_start:`
// label from the module's test files: the firmware the rest of the
// repository already assembles.
func firmwareSeeds(f *testing.F) []string {
	f.Helper()
	var seeds []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, "`") {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "_start:") {
					seeds = append(seeds, s)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no firmware found in the module's tests")
	}
	return seeds
}

// FuzzAssemble feeds the assembler firmware from the repository's tests
// and their mutations. Whatever the text, Assemble must not panic, must
// fail only with a *Error, and must not allocate beyond a small multiple
// of its input plus the largest image it accepts: a one-line `.space` or
// `.org` cannot buy gigabytes.
func FuzzAssemble(f *testing.F) {
	for _, s := range firmwareSeeds(f) {
		f.Add(s)
	}
	// Regression seeds: a bare directive indexed a missing argument, a
	// far `.org` or large `.space` allocated gigabytes, and a `.space`
	// just under MaxImage regrew the image past the allocation bound.
	for _, s := range []string{".space", ".align", ".asciz", ".org 0xFFFFFFF0\nnop\n", ".space 0x7FFFFFFF\n", ".spACe 0XF0000"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var p *Program
		var err error
		grew := testseed.Allocated(func() { p, err = Assemble(src, 0) })
		if limit := uint64(4*MaxImage + 64<<10 + 256*len(src)); grew > limit {
			t.Fatalf("assembling %d bytes allocated %d, limit %d", len(src), grew, limit)
		}
		if err != nil {
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if len(p.Code) > MaxImage {
			t.Fatalf("accepted a %d-byte image, limit %d", len(p.Code), MaxImage)
		}
	})
}
