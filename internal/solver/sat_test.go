package solver

import (
	"math/rand"
	"testing"
)

// satGroup is one guarded clause group: a query that assumes guard
// asks for every clause to hold.
type satGroup struct {
	guard   lit
	clauses [][]lit
	php     bool // the pigeonhole group: unsatisfiable on its own
}

// addSATGroup guards each clause with a fresh literal g as (¬g ∨
// clause), the way incContext guards a blasted constraint.
func addSATGroup(s *sat, clauses [][]lit, php bool) satGroup {
	g := mkLit(s.newVar(), false)
	for _, cl := range clauses {
		s.addClause(append([]lit{g.not()}, cl...))
	}
	return satGroup{guard: g, clauses: clauses, php: php}
}

// pigeonhole returns PHP(p, h) over fresh variables: each of p pigeons
// sits in one of h holes and no hole holds two. It is unsatisfiable for
// p > h, and CDCL needs hundreds of conflicts to show it.
func pigeonhole(s *sat, p, h int) [][]lit {
	x := make([][]lit, p)
	for i := range x {
		x[i] = make([]lit, h)
		for j := range x[i] {
			x[i][j] = mkLit(s.newVar(), false)
		}
	}
	var cls [][]lit
	for i := range x {
		cls = append(cls, x[i])
	}
	for j := 0; j < h; j++ {
		for i := 0; i < p; i++ {
			for k := i + 1; k < p; k++ {
				cls = append(cls, []lit{x[i][j].not(), x[k][j].not()})
			}
		}
	}
	return cls
}

// bruteForceSAT reports whether some assignment of the inputs satisfies
// every group. A pigeonhole group is unsatisfiable whatever the inputs.
func bruteForceSAT(in []int32, groups []satGroup) bool {
	pos := make(map[int32]uint, len(in))
	for i, v := range in {
		pos[v] = uint(i)
	}
	for _, g := range groups {
		if g.php {
			return false
		}
	}
next:
	for m := uint64(0); m < 1<<len(in); m++ {
		for _, g := range groups {
		clause:
			for _, cl := range g.clauses {
				for _, l := range cl {
					if (m>>pos[l.v()]&1 == 1) != l.sign() {
						continue clause
					}
				}
				continue next
			}
		}
		return true
	}
	return false
}

// satQueries is how many queries checkIncrementalSAT asks one instance.
const satQueries = 72

// checkIncrementalSAT drives one sat instance across queries as
// incContext does: guarded clause groups over at most 12 inputs are
// added between queries, and each query assumes a random subset of the
// guards. Every verdict must equal brute force and every Sat model must
// satisfy each assumed group. One query assumes the pigeonhole group
// PHP(6, 5) among satisfiable ones; it must pass 100 conflicts, so the
// query restarts and re-asserts its assumptions mid-search. It returns
// how many queries were Sat.
func checkIncrementalSAT(t *testing.T, c chooser) (sats int) {
	t.Helper()
	s := newSAT()
	in := make([]int32, 1+c.pick(12))
	for i := range in {
		in[i] = s.newVar()
	}
	randomGroup := func() satGroup {
		cls := make([][]lit, 1+c.pick(6))
		for i := range cls {
			for k := 1 + c.pick(3); k > 0; k-- {
				cls[i] = append(cls[i], mkLit(in[c.pick(len(in))], c.pick(2) == 1))
			}
		}
		return addSATGroup(s, cls, false)
	}
	groups := []satGroup{randomGroup(), addSATGroup(s, pigeonhole(s, 6, 5), true)}
	const phpQuery = 24
	for q := 0; q < satQueries; q++ {
		if len(groups) < 24 && c.pick(3) == 0 {
			groups = append(groups, randomGroup())
		}
		var assumed []satGroup
		for _, g := range groups {
			if !g.php && c.pick(3) == 0 {
				assumed = append(assumed, g)
			}
		}
		if q == phpQuery {
			if !bruteForceSAT(in, assumed) {
				assumed = nil
			}
			mid := len(assumed) / 2
			assumed = append(assumed[:mid:mid], append([]satGroup{groups[1]}, assumed[mid:]...)...)
		}
		assumps := make([]lit, len(assumed))
		for i, g := range assumed {
			assumps[i] = g.guard
		}
		conflicts := s.conflicts
		got := s.solveAssuming(assumps)
		if want := bruteForceSAT(in, assumed); got != want {
			t.Fatalf("query %d over %d of %d groups: sat says %v, brute force %v", q, len(assumed), len(groups), got, want)
		}
		if got {
			sats++
			for i, g := range assumed {
			clause:
				for j, cl := range g.clauses {
					for _, l := range cl {
						if s.value(l) == lTrue {
							continue clause
						}
					}
					t.Fatalf("query %d: the model leaves clause %d of assumed group %d without a true literal", q, j, i)
				}
			}
		}
		if q == phpQuery && s.conflicts-conflicts <= 100 {
			t.Fatalf("the pigeonhole query took %d conflicts, want > 100 so that it restarts", s.conflicts-conflicts)
		}
		s.cancelUntil(0)
	}
	return sats
}

// TestIncrementalSATMatchesBruteForce holds the SAT core's verdicts and
// models across queries on one instance to brute force. The seeds must
// draw both verdicts often.
func TestIncrementalSATMatchesBruteForce(t *testing.T) {
	const seeds = 16
	sats, total := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		sats += checkIncrementalSAT(t, randChooser{rand.New(rand.NewSource(seed))})
		total += satQueries
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	if sats < total/4 || total-sats < total/4 {
		t.Fatalf("%d of %d queries Sat: the generator does not draw both verdicts often", sats, total)
	}
}

// FuzzIncrementalSAT is the byte-driven twin: every byte is one
// generator decision.
func FuzzIncrementalSAT(f *testing.F) {
	f.Add([]byte{11, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 127, 64, 32, 9, 200, 13, 77, 3, 8, 1, 90, 45, 2, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIncrementalSAT(t, &byteChooser{data: data})
	})
}
