package solver

import "hardsnap/internal/expr"

// Counterexample/model-reuse bounds. The recent-model ring answers Sat
// by evaluation instead of solving; the unsat-core list answers Unsat
// when a remembered unsatisfiable set is a subset of the query (a
// superset of an unsatisfiable conjunction is unsatisfiable). Both are
// per-Solver and hold interned term pointers, so membership is pointer
// equality.
const (
	maxRecentModels = 8
	maxUnsatCores   = 64
	maxCoreSize     = 16
)

// tryRecentModels returns a cached model that satisfies every
// constraint, newest first. Any hit is a genuine model — validity is
// established by evaluation, not by provenance.
func (s *Solver) tryRecentModels(cs []*expr.Term) (expr.Assignment, bool) {
	for i := len(s.recent) - 1; i >= 0; i-- {
		m := s.recent[i]
		ok := true
		for _, c := range cs {
			if s.eval.Eval(c, m) == 0 {
				ok = false
				break
			}
		}
		if ok {
			return m, true
		}
	}
	return nil, false
}

// rememberModel records a model for future reuse. The model is copied
// so later caller-side mutation cannot corrupt the ring.
func (s *Solver) rememberModel(m expr.Assignment) {
	if len(m) == 0 {
		return
	}
	cp := make(expr.Assignment, len(m))
	for k, v := range m {
		cp[k] = v
	}
	s.recent = append(s.recent, cp)
	if len(s.recent) > maxRecentModels {
		s.recent = s.recent[len(s.recent)-maxRecentModels:]
	}
}

// coveredByUnsatCore reports whether a remembered unsat core is a
// subset of cs (pointer identity on interned terms).
func (s *Solver) coveredByUnsatCore(cs []*expr.Term) bool {
	if len(s.cores) == 0 {
		return false
	}
	set := make(map[*expr.Term]bool, len(cs))
	for _, c := range cs {
		set[c] = true
	}
	for i := len(s.cores) - 1; i >= 0; i-- {
		sub := true
		for _, t := range s.cores[i] {
			if !set[t] {
				sub = false
				break
			}
		}
		if sub {
			return true
		}
	}
	return false
}

// rememberUnsatCore records an unsatisfiable constraint set. Large sets
// are skipped — they are unlikely to recur as subsets and make every
// subset check slower.
func (s *Solver) rememberUnsatCore(cs []*expr.Term) {
	if len(cs) == 0 || len(cs) > maxCoreSize {
		return
	}
	core := append([]*expr.Term(nil), cs...)
	s.cores = append(s.cores, core)
	if len(s.cores) > maxUnsatCores {
		s.cores = s.cores[len(s.cores)-maxUnsatCores:]
	}
}

// restrictModel projects m onto the variables of cs, defaulting
// missing variables to zero. Slice models must be restricted before
// they are merged: an incremental context's model also assigns
// variables of dormant constraints, and letting those leak across
// slices could overwrite another slice's assignment.
func (s *Solver) restrictModel(cs []*expr.Term, m expr.Assignment) expr.Assignment {
	out := make(expr.Assignment)
	for _, c := range cs {
		for _, v := range s.varSet(c) {
			if val, ok := m[v.Name()]; ok {
				out[v.Name()] = val
			} else {
				out[v.Name()] = 0
			}
		}
	}
	return out
}
