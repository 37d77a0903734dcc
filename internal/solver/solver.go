package solver

import (
	"fmt"
	"time"

	"hardsnap/internal/expr"
)

// Result is the outcome of a satisfiability query.
type Result int

// Query outcomes.
const (
	Sat Result = iota + 1
	Unsat
)

// String returns the lowercase name of the result.
func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "invalid"
}

// Solver decides conjunctions of width-1 bitvector terms through one
// fixed pipeline, KLEE's solver chain: independence slicing, a
// per-slice verdict cache, the recent-model ring, then incremental
// assumption-based SAT. Every stage preserves verdicts; only effort and
// the particular model returned depend on the solver's history.
type Solver struct {
	// Cache, when non-nil, memoizes verdicts across queries
	// (and, when shared, across solvers — see Cache). The Solver
	// itself remains single-goroutine; only the Cache is safe to
	// share. The cache is also consulted per slice, so verdicts hit
	// across branches that share constraint subsets, not only across
	// identical paths.
	Cache *Cache

	// Builder is the expression builder the constraints were created
	// with: slicing reads its memoized var-sets, and the incremental
	// context relies on its interning to keep term pointers stable
	// across queries.
	Builder *expr.Builder

	// Stats accumulates across queries.
	Stats Stats

	// Counterexample-reuse ring (single-goroutine, like the Solver).
	recent []expr.Assignment

	// Incremental assumption-based context.
	ctx *incContext

	// eval decides model reuse and enumerated values.
	eval expr.Evaluator
}

// Stats reports cumulative solver effort and, per optimization stage,
// how often the stage shortcut fired.
type Stats struct {
	Queries      int64
	SatAnswers   int64
	UnsatAnswers int64
	CacheHits    int64
	Conflicts    int64
	Propagations int64

	// Sliced counts the independent components decided beyond the
	// first, summed over queries (0 when every query was one
	// component).
	Sliced int64
	// ModelHits counts Sat answers obtained by replaying a recent
	// model instead of solving.
	ModelHits int64
	// IncrementalReuses counts constraints that were already guarded
	// in the incremental context (no new blasting needed).
	IncrementalReuses int64
	// WallNS is wall-clock time spent inside Check, in nanoseconds.
	WallNS int64
}

// New returns a Solver for constraints built with b.
func New(b *expr.Builder) *Solver {
	return &Solver{Builder: b}
}

// Check decides whether the conjunction of constraints and extra (all
// width-1 terms) is satisfiable. On Sat it returns a model assigning
// every variable that occurs in them; the model may be shared with the
// cache and other queries, so the caller must not mutate it. Every
// query is decided: the search runs until it finds a model or a
// refutation. A constraint whose width is not 1 is a caller bug, and
// Check panics on it.
//
// key, when non-nil, is the SetKey of constraints and extra together,
// as Cache.Fold builds it; nil means "compute the key from the list".
// A caller that carries its list's key turns a whole-query memo hit
// into one 40-byte hash, and the list itself is joined only on a miss.
//
// The query runs through the pipeline slice → per-slice cache →
// recent-model ring → incremental SAT.
func (s *Solver) Check(constraints []*expr.Term, key *SetKey, extra ...*expr.Term) (Result, expr.Assignment) {
	start := time.Now()
	s.Stats.Queries++
	res, model := s.check(constraints, extra, key)
	s.Stats.WallNS += time.Since(start).Nanoseconds()
	switch res {
	case Sat:
		s.Stats.SatAnswers++
	case Unsat:
		s.Stats.UnsatAnswers++
	}
	return res, model
}

// join returns a followed by b, copying only when b is non-empty.
func join(a, b []*expr.Term) []*expr.Term {
	if len(b) == 0 {
		return a
	}
	return append(a[:len(a):len(a)], b...)
}

func (s *Solver) check(constraints, extra []*expr.Term, key *SetKey) (Result, expr.Assignment) {
	// Fast path: all-constant constraints.
	allConst := true
	for _, part := range [2][]*expr.Term{constraints, extra} {
		for _, c := range part {
			if c.Width() != 1 {
				panic(fmt.Sprintf("solver: a constraint of width %d, not 1", c.Width()))
			}
			v, ok := c.Const()
			if !ok {
				allConst = false
				continue
			}
			if v == 0 {
				return Unsat, nil
			}
		}
	}
	if allConst {
		return Sat, expr.Assignment{}
	}

	// Whole-query memo on the original constraint set.
	var ck CacheKey
	haveKey := s.Cache != nil
	if haveKey {
		if key == nil {
			ck = s.Cache.Key(join(constraints, extra))
		} else {
			ck = key.Sum()
			s.auditKey(ck, constraints, extra)
		}
		if res, model, ok := s.Cache.Lookup(ck); ok {
			s.Stats.CacheHits++
			return res, model
		}
	}

	slices := s.partition(join(constraints, extra))
	s.Stats.Sliced += int64(len(slices) - 1)
	// Per-slice verdicts are worth caching only when there is more
	// than one slice: a lone slice's key is the whole-query key, which
	// already missed.
	subCache := haveKey && len(slices) > 1

	var model expr.Assignment
	for _, sl := range slices {
		res, m := s.checkSlice(sl, subCache)
		if res == Unsat {
			if haveKey {
				s.Cache.Store(ck, Unsat, nil)
			}
			return Unsat, nil
		}
		if len(slices) == 1 {
			model = m
			break
		}
		// Slices are variable-disjoint, so merging cannot clobber
		// (checkSlice restricts each model to its slice's variables).
		if model == nil {
			model = make(expr.Assignment)
		}
		for k, v := range m {
			model[k] = v
		}
	}
	if haveKey {
		s.Cache.Store(ck, Sat, model)
	}
	s.rememberModel(model)
	return Sat, model
}

// auditKey panics, in a hardsnapaudit build, when a caller's key is not
// the batch key of its constraint list.
func (s *Solver) auditKey(key CacheKey, constraints, extra []*expr.Term) {
	if !cacheAudit {
		return
	}
	if want := s.Cache.Key(join(constraints, extra)); key != want {
		panic(fmt.Sprintf("solver: a query's key %x is not the key %x of its %d+%d constraints", key[:4], want[:4], len(constraints), len(extra)))
	}
}

// checkSlice decides one independence slice: per-slice cache, then
// counterexample reuse, then the incremental SAT context. Sat models
// are restricted to the slice's variables.
func (s *Solver) checkSlice(sl []*expr.Term, useCache bool) (Result, expr.Assignment) {
	var live []*expr.Term
	for _, c := range sl {
		if v, ok := c.Const(); ok {
			if v == 0 {
				return Unsat, nil
			}
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return Sat, expr.Assignment{}
	}

	var key CacheKey
	if useCache {
		key = s.Cache.Key(live)
		if res, model, ok := s.Cache.Lookup(key); ok {
			s.Stats.CacheHits++
			return res, model
		}
	}

	if m, ok := s.tryRecentModels(live); ok {
		s.Stats.ModelHits++
		m = s.restrictModel(live, m)
		if useCache {
			s.Cache.Store(key, Sat, m)
		}
		return Sat, m
	}

	m, ok := s.solveIncremental(live)
	if !ok {
		if useCache {
			s.Cache.Store(key, Unsat, nil)
		}
		return Unsat, nil
	}
	m = s.restrictModel(live, m)
	if useCache {
		s.Cache.Store(key, Sat, m)
	}
	s.rememberModel(m)
	return Sat, m
}

// Enumerate lists up to max distinct concrete values of t under the
// constraints, by iteratively blocking found values (the
// completeness-oriented concretization policy from the paper), with
// models[i] the model of the query that produced vals[i]: it satisfies
// the constraints and evaluates t to vals[i]. A constant t needs no
// query; its single value comes with a nil model. No values means the
// constraints are unsatisfiable. Thanks to the incremental context,
// each blocking query re-uses all previously blasted constraints and
// only the newest blocking constraint is new work.
//
// key is the SetKey of constraints, as for Check (nil: computed from
// the list). Each blocking constraint is folded into a copy of it, so
// a query that hits the memo joins no list and hashes 40 bytes.
func (s *Solver) Enumerate(constraints []*expr.Term, key *SetKey, t *expr.Term, max int) (vals []uint64, models []expr.Assignment) {
	if v, ok := t.Const(); ok {
		return []uint64{v}, []expr.Assignment{nil}
	}
	// k keys constraints plus every blocking constraint so far. A
	// blocking t != v is new to the set: the model that produced v
	// satisfies every earlier constraint and falsifies it.
	var k SetKey
	switch {
	case s.Cache == nil:
	case key != nil:
		k = *key
	default:
		k = s.Cache.set(constraints)
	}
	var blocks []*expr.Term
	for len(vals) < max {
		res, m := s.Check(constraints, &k, blocks...)
		if res != Sat {
			break
		}
		v := s.eval.Eval(t, m)
		vals = append(vals, v)
		models = append(models, m)
		block := s.Builder.Ne(t, s.Builder.Const(v, t.Width()))
		blocks = append(blocks, block)
		if s.Cache != nil {
			s.Cache.Fold(&k, block)
		}
	}
	return vals, models
}
