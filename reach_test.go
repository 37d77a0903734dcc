//go:build hardsnapreach

// TestReach is the reachability gate behind `make reach`: every function
// declared in a non-test file must be linked into a shipped binary (a
// cmd/* tool or an examples/* program), or be named in reach_allow.txt
// under one of the reasons in allowReasons. The linker decides what is
// reached: each binary is built with inlining off and its text symbols
// are read back with `go tool nm`.
package hardsnap_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const (
	reachModule    = "hardsnap"
	reachAllowFile = "reach_allow.txt"
	reachAllowMax  = 30
)

// allowReasons are the only reasons an allowlist entry may give.
var allowReasons = map[string]bool{
	"interface marker":    true,
	"test oracle":         true,
	"test-helper package": true,
	"reached only from benchmark/, which only a benchmark change may edit": true,
}

// reachFunc is one function declaration in a non-test file.
type reachFunc struct {
	file  string // slash-separated, relative to the repo root
	line  int
	lines int
	name  string // linker name: pkg.F, pkg.(*T).M or pkg.T.M
	bin   string // for a main package, the binary it belongs to
}

type allowEntry struct {
	pattern string
	line    int
	used    bool
}

func TestReach(t *testing.T) {
	funcs := declaredFuncs(t)
	tmp := t.TempDir()

	// Shipped binaries: one per cmd/* and examples/* main package.
	shipped := map[string]map[string]bool{}
	for _, dir := range []string{"cmd", "examples"} {
		out := filepath.Join(tmp, dir)
		goBuild(t, out+string(filepath.Separator), "./"+dir+"/...")
		ents, err := os.ReadDir(out)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			shipped[dir+"/"+e.Name()] = textSymbols(t, filepath.Join(out, e.Name()))
		}
	}
	if len(shipped) == 0 {
		t.Fatal("no shipped binaries built")
	}
	reached := func(f reachFunc) bool {
		if f.bin != "" {
			return shipped[f.bin][f.name]
		}
		for _, syms := range shipped {
			if syms[f.name] {
				return true
			}
		}
		return false
	}

	allow := readAllow(t)
	var unreached, failing []reachFunc
	for _, f := range funcs {
		if reached(f) {
			continue
		}
		unreached = append(unreached, f)
		allowed := false
		for _, a := range allow {
			if a.matches(f) {
				a.used, allowed = true, true
			}
		}
		if !allowed {
			failing = append(failing, f)
		}
	}

	// benchmark/ is not shipped, but knowing what it keeps alive tells a
	// reader why an entry under the benchmark reason is still there.
	benchBin := filepath.Join(tmp, "benchmark-bin")
	goBuild(t, benchBin, "./benchmark")
	bench := textSymbols(t, benchBin)
	var byFile []string
	perFile := map[string][]string{}
	unreachedLines, nBench := 0, 0
	for _, f := range unreached {
		unreachedLines += f.lines
		if f.bin == "" && bench[f.name] {
			nBench++
			if perFile[f.file] == nil {
				byFile = append(byFile, f.file)
			}
			perFile[f.file] = append(perFile[f.file], f.name[strings.LastIndex(f.name, "/")+1:])
		}
	}
	for _, file := range byFile {
		t.Logf("reached only from benchmark/: %s: %s", file, strings.Join(perFile[file], ", "))
	}
	t.Logf("%d functions declared, %d (%d lines) unreached by shipped binaries, %d of them reached from benchmark/",
		len(funcs), len(unreached), unreachedLines, nBench)

	for _, f := range failing {
		t.Errorf("%s:%d %s (%d lines) is reached by no shipped binary", f.file, f.line, f.name, f.lines)
	}
	for _, a := range allow {
		if !a.used {
			t.Errorf("%s:%d: stale entry %q matches no unreached function", reachAllowFile, a.line, a.pattern)
		}
	}
}

func (a *allowEntry) matches(f reachFunc) bool {
	if strings.HasSuffix(a.pattern, ".go") {
		return a.pattern == f.file
	}
	ok, _ := path.Match(a.pattern, f.name)
	return ok
}

func readAllow(t *testing.T) []*allowEntry {
	data, err := os.ReadFile(reachAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	var allow []*allowEntry
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		pattern, reason, ok := strings.Cut(line, "#")
		pattern, reason = strings.TrimSpace(pattern), strings.TrimSpace(reason)
		if !ok || pattern == "" || !allowReasons[reason] {
			t.Fatalf("%s:%d: want \"<glob or file> # <reason>\" with a known reason, got %q", reachAllowFile, i+1, line)
		}
		if _, err := path.Match(pattern, ""); err != nil {
			t.Fatalf("%s:%d: %v", reachAllowFile, i+1, err)
		}
		allow = append(allow, &allowEntry{pattern: pattern, line: i + 1})
	}
	if len(allow) > reachAllowMax {
		t.Fatalf("%s has %d entries, at most %d allowed", reachAllowFile, len(allow), reachAllowMax)
	}
	return allow
}

// declaredFuncs parses every non-test Go file outside benchmark/ that
// the default build context would compile.
func declaredFuncs(t *testing.T) []reachFunc {
	var funcs []reachFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (p == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, bin := reachModule, ""
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		if file.Name.Name == "main" {
			pkg, bin = "main", filepath.ToSlash(dir)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			funcs = append(funcs, reachFunc{
				file:  filepath.ToSlash(p),
				line:  start.Line,
				lines: end.Line - start.Line + 1,
				name:  pkg + "." + recvName(fd) + fd.Name.Name,
				bin:   bin,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// recvName is the receiver part of a method's linker name, "(*T)." or
// "T.", with type parameters dropped; "" for a plain function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ, ptr := fd.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

func goBuild(t *testing.T, out, pkg string) {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", out, pkg)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, b)
	}
}

var typeParams = regexp.MustCompile(`\[[^\[\]]*\]`)

// textSymbols returns the names of the text symbols in a binary, with
// generic instantiation suffixes ("[...]", "[go.shape.int]") removed.
func textSymbols(t *testing.T, bin string) map[string]bool {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	syms := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		name := strings.Join(fields[2:], " ")
		for prev := ""; prev != name; {
			prev, name = name, typeParams.ReplaceAllString(name, "")
		}
		syms[name] = true
	}
	return syms
}
