//go:build hardsnapaudit

package solver

import (
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
