package solver

import "hardsnap/internal/expr"

// incContext is a persistent assumption-based solving context. Every
// distinct constraint term ever seen gets a guard literal g and one
// implication clause (¬g ∨ blast(c)); a query then assumes exactly the
// guards of its constraint set. Retraction is free — a constraint not
// assumed is simply dormant — so one context serves every query on a
// path (and, because supersets of earlier queries re-use all their
// guards, each branch step blasts only the new constraint). Learned
// clauses mention guards negated and stay globally valid, and the
// blaster's gate cache persists, which is where the bulk of the win
// over fresh per-query blasting comes from.
//
// Soundness of keeping everything: Tseitin gate clauses only define
// fresh variables and never constrain inputs on their own (the divider
// asserts only over its fresh quotient/remainder vector), so an
// unassumed constraint cannot restrict the search.
type incContext struct {
	core   *sat
	bl     *blaster
	guards map[*expr.Term]lit
}

// maxContextGuards bounds context growth; past it the context is
// rebuilt from scratch so a long-lived solver cannot accumulate
// unbounded clauses for constraints it will never see again.
const maxContextGuards = 2048

func (s *Solver) context() *incContext {
	if s.ctx == nil || !s.ctx.core.ok || len(s.ctx.guards) > maxContextGuards {
		core := newSAT()
		s.ctx = &incContext{core: core, bl: newBlaster(core), guards: make(map[*expr.Term]lit)}
	}
	return s.ctx
}

// solveIncremental decides the conjunction in the persistent context:
// ok reports it satisfiable, and the model then covers every variable
// the context has ever blasted; callers restrict it to the query's
// variables.
func (s *Solver) solveIncremental(cs []*expr.Term) (m expr.Assignment, ok bool) {
	ctx := s.context()
	core := ctx.core
	baseC, baseP := core.conflicts, core.propagations
	assumps := make([]lit, 0, len(cs))
	for _, c := range cs {
		g, known := ctx.guards[c]
		if known {
			s.Stats.IncrementalReuses++
		} else {
			g = ctx.bl.freshLit()
			l := ctx.bl.blast(c)[0]
			core.addClause([]lit{g.not(), l})
			ctx.guards[c] = g
		}
		assumps = append(assumps, g)
	}
	ok = core.solveAssuming(assumps)
	s.Stats.Conflicts += core.conflicts - baseC
	s.Stats.Propagations += core.propagations - baseP
	if ok {
		m = ctx.bl.model()
	}
	core.cancelUntil(0)
	if !core.ok {
		// Guarded clauses alone cannot make the formula globally
		// unsatisfiable; if it happened anyway, rebuild next query.
		s.ctx = nil
	}
	return m, ok
}
