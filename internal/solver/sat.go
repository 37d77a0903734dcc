// Package solver implements a bitvector constraint solver for the
// QF_BV fragment produced by the symbolic executor. Terms are
// bit-blasted (Tseitin transformation) into CNF and decided by an
// embedded CDCL SAT solver with two-watched-literal propagation, a
// move-to-front decision queue, phase saving, first-UIP clause learning
// and geometric restarts.
package solver

import "fmt"

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
	vals     []lbool     // indexed by lit: both polarities of every var
	level    []int32     // decision level per var
	reason   []*clause   // antecedent clause per var
	polarity []bool      // saved phase
	trail    []lit
	trailLim []int32
	qhead    int
	claInc   float64
	queue    vmtf
	ok       bool

	conflicts    int64
	propagations int64

	seen       []bool
	analyzeTmp []lit
}

func newSAT() *sat {
	s := &sat{
		claInc: 1,
		ok:     true,
		queue:  vmtf{last: -1},
	}
	// Reserve var 0 = TRUE.
	s.newVar()
	s.addClause([]lit{litTrue})
	return s
}

func (s *sat) newVar() int32 {
	v := int32(len(s.level))
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.polarity = append(s.polarity, true) // default phase: false
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.queue.add(v)
	return v
}

func (s *sat) value(l lit) lbool { return s.vals[l] }

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
	s.vals[l] = lTrue
	s.vals[l.not()] = lFalse
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
			s.queue.moveToFront(v)
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

// cancelUntil retracts every assignment above the given level, saving
// each variable's phase, and points the queue's search at the newest
// variable it frees.
func (s *sat) cancelUntil(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	q := &s.queue
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		l := s.trail[i]
		v := l.v()
		s.polarity[v] = l.sign()
		s.vals[l] = lUndef
		s.vals[l.not()] = lUndef
		s.reason[v] = nil
		if q.stamp[v] > q.stamp[q.search] {
			q.search = v
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranchVar returns the most recently bumped unassigned variable,
// or -1 if the queue holds none: it walks back from the search pointer,
// past variables that are assigned, and leaves the pointer where it
// stopped.
func (s *sat) pickBranchVar() int32 {
	q := &s.queue
	v := q.search
	for v >= 0 && s.vals[mkLit(v, false)] != lUndef {
		v = q.prev[v]
	}
	if v >= 0 {
		q.search = v
	}
	return v
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
	return len(c.lits) > 0 && s.vals[c.lits[0]] != lUndef && s.reason[c.lits[0].v()] == c
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
			s.claInc /= 0.999 // newer learned clauses outrank older ones in reduceDB
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
		// With every variable assigned and no conflict, each clause
		// holds a true literal: answer without walking the queue.
		v := int32(-1)
		if len(s.trail) < len(s.level) {
			v = s.pickBranchVar()
		}
		if v < 0 {
			s.auditModel(assumps)
			return true
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(mkLit(v, s.polarity[v]), nil)
	}
}

// auditModel panics, in a hardsnapaudit build, naming the first way a
// Sat answer is not a model: a variable left unassigned, an assumption
// that is not true, or a problem or learned clause with no true literal.
func (s *sat) auditModel(assumps []lit) {
	if !auditBuild {
		return
	}
	for v := range s.level {
		if s.vals[mkLit(int32(v), false)] == lUndef {
			panic(fmt.Sprintf("solver: a Sat answer leaves variable %d of %d unassigned", v, len(s.level)))
		}
	}
	for i, a := range assumps {
		if s.value(a) != lTrue {
			panic(fmt.Sprintf("solver: a Sat answer makes assumption %d of %d false", i, len(assumps)))
		}
	}
	for _, db := range []struct {
		kind string
		cs   []*clause
	}{{"problem", s.clauses}, {"learned", s.learned}} {
	next:
		for i, c := range db.cs {
			for _, l := range c.lits {
				if s.value(l) == lTrue {
					continue next
				}
			}
			panic(fmt.Sprintf("solver: a Sat answer leaves %s clause %d of %d without a true literal", db.kind, i, len(db.cs)))
		}
	}
}

// vmtf is the decision queue (variable move-to-front; Biere and
// Fröhlich, "Evaluating CDCL Variable Scoring Schemes", SAT 2015): a
// doubly linked list of the variables in bump order, whose front (last)
// is the most recently bumped. Each variable carries the stamp of its
// last move, and search points at a variable behind which no newer one
// is unassigned, so a decision walks back from it past assigned
// variables only, and a backjump moves it in O(1) per freed variable
// instead of re-heaping.
type vmtf struct {
	prev, next []int32 // -1 ends the list
	stamp      []int64
	last       int32
	search     int32
	stamps     int64
}

// add links a new, unassigned variable in at the front of the queue.
func (q *vmtf) add(v int32) {
	q.prev = append(q.prev, -1)
	q.next = append(q.next, -1)
	q.stamp = append(q.stamp, 0)
	q.push(v)
	q.search = v
}

// moveToFront makes v the most recently bumped variable. Analysis bumps
// only assigned variables, so search needs no update here.
func (q *vmtf) moveToFront(v int32) {
	if v == q.last {
		return
	}
	p, n := q.prev[v], q.next[v]
	if p >= 0 {
		q.next[p] = n
	}
	q.prev[n] = p // n >= 0: v is not last
	q.push(v)
}

// push links v in at the front with a fresh stamp.
func (q *vmtf) push(v int32) {
	q.stamps++
	q.stamp[v] = q.stamps
	q.prev[v], q.next[v] = q.last, -1
	if q.last >= 0 {
		q.next[q.last] = v
	}
	q.last = v
}
