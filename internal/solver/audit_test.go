//go:build hardsnapaudit

package solver

import (
	"fmt"
	"strings"
	"testing"

	"hardsnap/internal/expr"
)

// TestAuditCatchesMisuse: in an audit build a key that is not its
// list's batch key, and a caller that mutates a model the cache
// shares, each fail at the next query instead of corrupting verdicts.
func TestAuditCatchesMisuse(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	s.Cache = NewCache(0)
	x := b.Var("x", 8)
	cs := []*expr.Term{b.Ult(x, b.Const(10, 8))}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}

	var wrong SetKey
	mustPanic("a wrong key", func() { s.Check(cs, &wrong) })

	_, model := s.Check(cs, nil)
	model["x"] = 0xff
	mustPanic("a hit on a mutated model", func() { s.Check(cs, nil) })
}

// TestAuditRefusesNonModel: in an audit build a Sat answer that leaves
// a variable unassigned, an assumption false or a clause without a true
// literal panics, naming which.
func TestAuditRefusesNonModel(t *testing.T) {
	solved := func() (*sat, lit) {
		s := newSAT()
		x := mkLit(s.newVar(), false)
		s.addClause([]lit{x, mkLit(s.newVar(), false)})
		if !s.solveAssuming([]lit{x}) {
			t.Fatal("x ∨ y is satisfiable under x")
		}
		return s, x
	}
	mustPanic := func(want string, f func(s *sat, x lit)) {
		t.Helper()
		s, x := solved()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("got panic %v, want one naming %q", r, want)
			}
		}()
		f(s, x)
	}
	mustPanic("unassigned", func(s *sat, x lit) {
		s.newVar()
		s.auditModel([]lit{x})
	})
	mustPanic("assumption 1 of 2 false", func(s *sat, x lit) { s.auditModel([]lit{x, x.not()}) })
	mustPanic("learned clause 0 of 1", func(s *sat, x lit) {
		s.learned = append(s.learned, &clause{lits: []lit{x.not(), litFalse}, learned: true})
		s.auditModel([]lit{x})
	})
}
