package solver

import "hardsnap/internal/expr"

// maxRecentModels bounds the counterexample-reuse ring, which answers
// Sat by evaluation instead of solving. The ring is per-Solver.
const maxRecentModels = 8

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

// rememberModel records a model for future reuse. The ring keeps m
// itself: models are immutable once a query returns them (see Check).
func (s *Solver) rememberModel(m expr.Assignment) {
	if len(m) == 0 {
		return
	}
	s.recent = append(s.recent, m)
	if len(s.recent) > maxRecentModels {
		s.recent = s.recent[len(s.recent)-maxRecentModels:]
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
		for _, v := range s.Builder.VarSet(c) {
			if val, ok := m[v.Name()]; ok {
				out[v.Name()] = val
			} else {
				out[v.Name()] = 0
			}
		}
	}
	return out
}
