package solver

import "hardsnap/internal/expr"

// partition splits a conjunction into its connected components
// ("independence slices"): constraints end up in the same slice iff
// they are linked through shared variables. Each slice can be decided
// independently — the conjunction is Sat iff every slice is, and the
// union of per-slice models is a model of the whole. Slices preserve
// first-occurrence order, so partitioning is deterministic.
func (s *Solver) partition(cs []*expr.Term) [][]*expr.Term {
	if len(cs) <= 1 {
		return [][]*expr.Term{cs}
	}
	parent := make([]int, len(cs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	owner := make(map[*expr.Term]int)
	for i, c := range cs {
		for _, v := range s.Builder.VarSet(c) {
			if j, ok := owner[v]; ok {
				union(j, i)
			} else {
				owner[v] = i
			}
		}
	}
	index := make(map[int]int) // component root -> output slice
	var out [][]*expr.Term
	for i, c := range cs {
		r := find(i)
		gi, ok := index[r]
		if !ok {
			gi = len(out)
			index[r] = gi
			out = append(out, nil)
		}
		out[gi] = append(out[gi], c)
	}
	return out
}
