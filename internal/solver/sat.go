// Package solver implements a bitvector constraint solver for the
// QF_BV fragment produced by the symbolic executor. Terms are
// bit-blasted (Tseitin transformation) into CNF and decided by an
// embedded CDCL SAT solver with two-watched-literal propagation,
// activity-based decision heuristics, first-UIP clause learning and
// geometric restarts.
package solver

// A literal encodes a variable and sign: lit = 2*var + (1 if negated).
// Variable 0 is reserved as the constant TRUE (asserted by a unit
// clause), so lit 0 means "true" and lit 1 means "false".
type lit int32

func mkLit(v int32, neg bool) lit {
	l := lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

func (l lit) not() lit     { return l ^ 1 }
func (l lit) v() int32     { return int32(l >> 1) }
func (l lit) sign() bool   { return l&1 != 0 } // true = negated
func (l lit) index() int32 { return int32(l) }

const (
	litTrue  lit = 0
	litFalse lit = 1
)

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) neg() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

type clause struct {
	lits    []lit
	learned bool
	act     float64
}

type watcher struct {
	c       *clause
	blocker lit
}

// sat is the CDCL core.
type sat struct {
	clauses  []*clause
	learned  []*clause
	watches  [][]watcher // indexed by lit
	assigns  []lbool     // indexed by var
	level    []int32     // decision level per var
	reason   []*clause   // antecedent clause per var
	activity []float64
	polarity []bool // saved phase
	trail    []lit
	trailLim []int32
	qhead    int
	varInc   float64
	claInc   float64
	order    *varHeap
	ok       bool

	conflicts    int64
	propagations int64

	seen       []bool
	analyzeTmp []lit
}

func newSAT() *sat {
	s := &sat{
		varInc: 1,
		claInc: 1,
		ok:     true,
	}
	s.order = &varHeap{s: s}
	// Reserve var 0 = TRUE.
	v := s.newVar()
	_ = v
	s.addClause([]lit{litTrue})
	return s
}

func (s *sat) newVar() int32 {
	v := int32(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true) // default phase: false
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	return v
}

func (s *sat) value(l lit) lbool {
	v := s.assigns[l.v()]
	if v == lUndef {
		return lUndef
	}
	if l.sign() {
		return v.neg()
	}
	return v
}

func (s *sat) decisionLevel() int32 { return int32(len(s.trailLim)) }

// addClause adds a problem clause, simplifying against top-level
// assignments. Returns false if the formula became unsatisfiable.
func (s *sat) addClause(lits []lit) bool {
	if !s.ok {
		return false
	}
	// Simplify: remove duplicate/false lits; detect tautology/true lits.
	out := lits[:0:0]
	seenLit := make(map[lit]bool, len(lits))
	for _, l := range lits {
		switch {
		case s.value(l) == lTrue && s.level[l.v()] == 0:
			return true // clause satisfied at top level
		case s.value(l) == lFalse && s.level[l.v()] == 0:
			continue // drop false literal
		case seenLit[l.not()]:
			return true // tautology
		case seenLit[l]:
			continue
		}
		seenLit[l] = true
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		s.ok = s.propagate() == nil
		return s.ok
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *sat) attach(c *clause) {
	l0, l1 := c.lits[0], c.lits[1]
	s.watches[l0.not().index()] = append(s.watches[l0.not().index()], watcher{c: c, blocker: l1})
	s.watches[l1.not().index()] = append(s.watches[l1.not().index()], watcher{c: c, blocker: l0})
}

func (s *sat) uncheckedEnqueue(l lit, from *clause) {
	v := l.v()
	if l.sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns the conflicting clause
// or nil.
func (s *sat) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p.index()]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != nil {
				kept = append(kept, ws[i:]...)
				break
			}
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Normalize so that the false literal is lits[1].
			if c.lits[0] == p.not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c: c, blocker: first})
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nl := c.lits[1].not().index()
					s.watches[nl] = append(s.watches[nl], watcher{c: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, w)
			if s.value(first) == lFalse {
				confl = c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, c)
			}
		}
		s.watches[p.index()] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

// analyze computes a 1UIP learned clause from the conflict and returns
// it together with the backjump level.
func (s *sat) analyze(confl *clause) ([]lit, int32) {
	learnt := s.analyzeTmp[:0]
	learnt = append(learnt, 0) // placeholder for asserting literal
	var p lit = -1
	counter := 0
	idx := len(s.trail) - 1

	for {
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.v()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand from trail.
		for !s.seen[s.trail[idx].v()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.v()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.v()]
	}
	learnt[0] = p.not()

	// Backjump level = max level among learnt[1:].
	bt := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].v()] > s.level[learnt[maxI].v()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].v()]
	}
	for _, l := range learnt {
		s.seen[l.v()] = false
	}
	s.analyzeTmp = learnt
	out := make([]lit, len(learnt))
	copy(out, learnt)
	return out, bt
}

func (s *sat) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *sat) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

func (s *sat) cancelUntil(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].v()
		s.polarity[v] = s.assigns[v] == lFalse
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *sat) pickBranchVar() int32 {
	for s.order.size() > 0 {
		v := s.order.removeMax()
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

func (s *sat) reduceDB() {
	if len(s.learned) < 4000 {
		return
	}
	// Drop the lower-activity half of learned clauses that are not
	// reasons for current assignments.
	half := len(s.learned) / 2
	// Simple selection: sort by activity (insertion into buckets is
	// overkill; use a partial selection).
	sortClausesByActivity(s.learned)
	kept := s.learned[:0]
	removed := 0
	for i, c := range s.learned {
		if removed < half && len(c.lits) > 2 && !s.isReason(c) && i < half {
			s.detach(c)
			removed++
			continue
		}
		kept = append(kept, c)
	}
	s.learned = kept
}

func (s *sat) isReason(c *clause) bool {
	return len(c.lits) > 0 && s.assigns[c.lits[0].v()] != lUndef && s.reason[c.lits[0].v()] == c
}

func (s *sat) detach(c *clause) {
	for _, l := range []lit{c.lits[0], c.lits[1]} {
		ws := s.watches[l.not().index()]
		for i, w := range ws {
			if w.c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l.not().index()] = ws[:len(ws)-1]
				break
			}
		}
	}
}

func sortClausesByActivity(cs []*clause) {
	// Insertion-free: simple quicksort via sort-like shuffles would pull
	// in sort pkg; keep it simple and allocation-free.
	quickSortClauses(cs, 0, len(cs)-1)
}

func quickSortClauses(cs []*clause, lo, hi int) {
	for lo < hi {
		p := cs[(lo+hi)/2].act
		i, j := lo, hi
		for i <= j {
			for cs[i].act < p {
				i++
			}
			for cs[j].act > p {
				j--
			}
			if i <= j {
				cs[i], cs[j] = cs[j], cs[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortClauses(cs, lo, j)
			lo = i
		} else {
			quickSortClauses(cs, i, hi)
			hi = j
		}
	}
}

// solveAssuming runs the CDCL loop with the given literals as
// assumptions and reports whether the formula is satisfiable under
// them. They are forced as the first decisions (MiniSat-style), so
// false means "unsatisfiable under the assumptions" while the
// underlying formula stays intact and reusable. Learned clauses derived
// under assumptions mention the assumption literals negated and remain
// globally valid, which is what makes the incremental per-path context
// sound across queries. The caller must cancelUntil(0) afterwards to
// retract the assumptions (and should extract any model first).
func (s *sat) solveAssuming(assumps []lit) bool {
	if !s.ok {
		return false
	}
	restartLimit := int64(100)
	conflictsAtRestart := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflictsAtRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return false
			}
			learnt, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learned: true, act: s.claInc}
				s.learned = append(s.learned, c)
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			continue
		}
		if conflictsAtRestart >= restartLimit {
			conflictsAtRestart = 0
			restartLimit = restartLimit * 3 / 2
			// Restarting retracts the assumptions too; the decision
			// loop below re-asserts them in order.
			s.cancelUntil(0)
			s.reduceDB()
			continue
		}
		if int(s.decisionLevel()) < len(assumps) {
			p := assumps[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				// Already implied: open a dummy decision level so the
				// remaining assumptions keep their positions.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case lFalse:
				// Contradicts the formula plus earlier assumptions.
				return false
			default:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				s.uncheckedEnqueue(p, nil)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			return true
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(mkLit(v, s.polarity[v]), nil)
	}
}

// varHeap is a max-heap over variable activity.
type varHeap struct {
	s       *sat
	heap    []int32
	indices []int32 // var -> heap position + 1 (0 = absent)
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(a, b int32) bool {
	return h.s.activity[a] > h.s.activity[b]
}

func (h *varHeap) insert(v int32) {
	for int(v) >= len(h.indices) {
		h.indices = append(h.indices, 0)
	}
	if h.indices[v] != 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = int32(len(h.heap))
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v int32) {
	if int(v) < len(h.indices) && h.indices[v] != 0 {
		h.up(int(h.indices[v] - 1))
	}
}

func (h *varHeap) removeMax() int32 {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 1
	h.heap = h.heap[:last]
	h.indices[v] = 0
	if last > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = int32(i + 1)
		i = p
	}
	h.heap[i] = v
	h.indices[v] = int32(i + 1)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = int32(i + 1)
		i = c
	}
	h.heap[i] = v
	h.indices[v] = int32(i + 1)
}
