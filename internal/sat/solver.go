// Package sat implements a CDCL (conflict-driven clause learning) Boolean
// satisfiability solver in the MiniSat tradition: two-literal watches,
// VSIDS variable activity, first-UIP conflict analysis with clause
// minimization, phase saving, Luby restarts, and learned-clause database
// reduction. It is the verification engine behind SAT sweeping.
package sat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Lit is a solver literal: 2*variable + sign, where sign 1 means negated.
type Lit int32

// MkLit builds a literal from a zero-based variable index.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// IsNeg reports whether the literal is negated.
func (l Lit) IsNeg() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

const (
	valueUnassigned int8 = -1
	valueFalse      int8 = 0
	valueTrue       int8 = 1
)

// The clause arena stores every clause contiguously as
//
//	header | lits[0] … lits[size-1] | lbd | act_lo | act_hi
//
// where the header packs size<<2 | deleted<<1 | learnt and the three-word
// trailer (the LBD and the two halves of the float64 activity) is present
// only on learnt clauses. A clause ref is the offset of its header.
// Clauses never move except in compact, which keeps their order.
const (
	hdrLearnt     Lit = 1
	hdrDeleted    Lit = 2
	hdrSizeShift      = 2
	learntTrailer     = 3
)

// clauseWords is the arena footprint of the clause with header h.
func clauseWords(h Lit) int {
	n := 1 + int(h>>hdrSizeShift)
	if h&hdrLearnt != 0 {
		n += learntTrailer
	}
	return n
}

type watcher struct {
	clauseRef int32
	blocker   Lit
}

// Stats counts solver work, exposed for the sweeping instrumentation.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learnt       int64
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	arena      []Lit       // clause store, see clauseWords
	watches    [][]watcher // indexed by literal
	numClauses int

	vals     []int8 // indexed by literal; both polarities written together
	level    []int32
	reason   []int32 // clause ref or -1
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []bool

	claInc      float64
	maxLearnt   float64
	learntCount int

	seen      []bool
	analyzeTo []Lit
	lvlStamp  []uint32 // analyze scratch: LBD level marks, indexed by level
	stamp     uint32
	addBuf    []Lit // AddClause scratch

	// ConflictBudget, when positive, bounds the number of conflicts per
	// Solve call; exceeding it yields Unknown.
	ConflictBudget int64

	// PropagationBudget, when positive, bounds the number of unit
	// propagations per Solve call; exceeding it yields Unknown. It is the
	// wall-clock-proportional budget (propagations dominate runtime),
	// complementing ConflictBudget's difficulty-proportional one.
	PropagationBudget int64

	// interrupted is an asynchronous stop request, safe to set from another
	// goroutine (Interrupt). Solve polls it every interruptCheckEvery
	// propagations and returns Unknown promptly once it is set. The flag is
	// sticky: it stays set (and keeps Solve returning Unknown) until
	// ClearInterrupt.
	interrupted atomic.Bool

	Stats Stats

	// onLearn, when set, observes every learnt clause (testing hook).
	onLearn func([]Lit)
	// onReduce, when set, runs after every learnt-database reduction
	// (testing hook).
	onReduce func()

	unsat bool // set when the clause set is trivially contradictory
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc: 1.0,
		claInc: 1.0,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// NumVars returns the number of variables created.
func (s *Solver) NumVars() int { return len(s.level) }

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, valueUnassigned, valueUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// AddClause adds a clause at decision level 0. It returns false when the
// formula became trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	// Sort, dedup, drop false literals, detect tautologies and satisfied
	// clauses.
	ls := append(s.addBuf[:0], lits...)
	slices.Sort(ls)
	s.addBuf = ls
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v references unknown variable", l))
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology
		}
		switch s.vals[l] {
		case valueTrue:
			return true // already satisfied
		case valueFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() >= 0 {
			s.unsat = true
			return false
		}
		return true
	}
	s.attachClause(out, false, 0)
	return true
}

// attachClause copies lits into the arena as a new clause and watches its
// first two literals.
func (s *Solver) attachClause(lits []Lit, learnt bool, lbd int32) int32 {
	ref := int32(len(s.arena))
	h := Lit(len(lits)) << hdrSizeShift
	if learnt {
		h |= hdrLearnt
	}
	s.arena = append(s.arena, h)
	s.arena = append(s.arena, lits...)
	if learnt {
		s.arena = append(s.arena, Lit(lbd), 0, 0) // activity 0
		s.learntCount++
	}
	s.numClauses++
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{ref, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{ref, lits[0]})
	return ref
}

// clauseLits returns the literals of the clause at ref, aliasing the arena.
func (s *Solver) clauseLits(ref int32) []Lit {
	size := int(s.arena[ref] >> hdrSizeShift)
	return s.arena[ref+1 : int(ref)+1+size]
}

// trailer returns the learnt trailer (lbd, act_lo, act_hi) of the learnt
// clause at ref.
func (s *Solver) trailer(ref int32) []Lit {
	t := int(ref) + 1 + int(s.arena[ref]>>hdrSizeShift)
	return s.arena[t : t+learntTrailer]
}

func getActivity(t []Lit) float64 {
	return math.Float64frombits(uint64(uint32(t[1])) | uint64(uint32(t[2]))<<32)
}

func setActivity(t []Lit, a float64) {
	b := math.Float64bits(a)
	t[1], t[2] = Lit(uint32(b)), Lit(uint32(b>>32))
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	v := l.Var()
	s.vals[l] = valueTrue
	s.vals[l^1] = valueFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the ref of a conflicting
// clause or -1.
func (s *Solver) propagate() int32 {
	vals, arena := s.vals, s.arena
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()

		ws := s.watches[p]
		i, j := 0, 0
		conflict := int32(-1)
	nextWatch:
		for i < len(ws) {
			w := ws[i]
			i++
			if vals[w.blocker] == valueTrue {
				ws[j] = w
				j++
				continue
			}
			cr := w.clauseRef
			start := int(cr) + 1
			end := start + int(arena[cr]>>hdrSizeShift)
			lits := arena[start:end:end]
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == valueTrue {
				ws[j] = watcher{cr, first}
				j++
				continue
			}
			// Search a new watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != valueFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nw := lits[1].Not()
					s.watches[nw] = append(s.watches[nw], watcher{cr, first})
					continue nextWatch
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{cr, first}
			j++
			if vals[first] == valueFalse {
				conflict = cr
				// Keep the remaining watchers and stop.
				j += copy(ws[j:], ws[i:])
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, cr)
		}
		s.watches[p] = ws[:j]
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP learning; it fills s.analyzeTo with the learnt
// clause (asserting literal first) and returns the backtrack level and the
// clause LBD.
func (s *Solver) analyze(confl int32) (int, int32) {
	s.analyzeTo = s.analyzeTo[:0]
	s.analyzeTo = append(s.analyzeTo, 0) // placeholder for the UIP
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.arena[confl]&hdrLearnt != 0 {
			s.bumpClause(confl)
		}
		lits := s.clauseLits(confl)
		if p != -1 {
			lits = lits[1:]
		}
		for _, q := range lits {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				pathC++
			} else {
				s.analyzeTo = append(s.analyzeTo, q)
			}
		}
		// Select next literal on the trail to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	s.analyzeTo[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. Every
	// variable of the clause, the UIP included, stays marked in seen until
	// minimization is over. Kept literals are swapped forward in order,
	// so the dropped ones end up behind them.
	s.seen[p.Var()] = true
	kept := 1
	for i, l := range s.analyzeTo[1:] {
		if r := s.reason[l.Var()]; r >= 0 && s.redundant(l, r) {
			continue
		}
		s.analyzeTo[i+1], s.analyzeTo[kept] = s.analyzeTo[kept], l
		kept++
	}

	// Clear seen flags, including literals dropped by minimization — stale
	// seen bits would silently drop literals from future learnt clauses.
	for _, l := range s.analyzeTo {
		s.seen[l.Var()] = false
	}
	s.analyzeTo = s.analyzeTo[:kept]

	// Compute backtrack level and LBD.
	btLevel := 0
	if len(s.analyzeTo) > 1 {
		maxI := 1
		for i := 2; i < len(s.analyzeTo); i++ {
			if s.level[s.analyzeTo[i].Var()] > s.level[s.analyzeTo[maxI].Var()] {
				maxI = i
			}
		}
		s.analyzeTo[1], s.analyzeTo[maxI] = s.analyzeTo[maxI], s.analyzeTo[1]
		btLevel = int(s.level[s.analyzeTo[1].Var()])
	}
	return btLevel, s.lbd(s.analyzeTo)
}

// redundant reports whether every other literal of l's reason clause r is
// marked in seen or assigned at level 0, so l is implied by the rest of
// the learnt clause.
func (s *Solver) redundant(l Lit, r int32) bool {
	for _, q := range s.clauseLits(r) {
		if v := q.Var(); v != l.Var() && !s.seen[v] && s.level[v] != 0 {
			return false
		}
	}
	return true
}

// lbd counts the distinct decision levels among lits, marking each level
// with a fresh stamp.
func (s *Solver) lbd(lits []Lit) int32 {
	for len(s.lvlStamp) <= s.decisionLevel() {
		s.lvlStamp = append(s.lvlStamp, 0)
	}
	s.stamp++
	if s.stamp == 0 {
		clear(s.lvlStamp)
		s.stamp = 1
	}
	n := int32(0)
	for _, l := range lits {
		if lv := s.level[l.Var()]; s.lvlStamp[lv] != s.stamp {
			s.lvlStamp[lv] = s.stamp
			n++
		}
	}
	return n
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(ref int32) {
	t := s.trailer(ref)
	a := getActivity(t) + s.claInc
	setActivity(t, a)
	if a > 1e20 {
		for r := 0; r < len(s.arena); r += clauseWords(s.arena[r]) {
			if s.arena[r]&hdrLearnt != 0 {
				t := s.trailer(int32(r))
				setActivity(t, getActivity(t)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= 0.999 }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.IsNeg()
		s.vals[l] = valueUnassigned
		s.vals[l^1] = valueUnassigned
		s.reason[v] = -1
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.vals[MkLit(v, false)] == valueUnassigned {
			return v
		}
	}
}

// reduceDB removes the less active half of the learned clauses.
func (s *Solver) reduceDB() {
	type entry struct {
		ref int32
		act float64
		lbd int32
	}
	var learnts []entry
	for r := 0; r < len(s.arena); r += clauseWords(s.arena[r]) {
		if h := s.arena[r]; h&hdrLearnt != 0 && h>>hdrSizeShift > 2 {
			t := s.trailer(int32(r))
			learnts = append(learnts, entry{int32(r), getActivity(t), int32(t[0])})
		}
	}
	sort.Slice(learnts, func(i, j int) bool {
		if learnts[i].lbd != learnts[j].lbd {
			return learnts[i].lbd > learnts[j].lbd
		}
		return learnts[i].act < learnts[j].act
	})
	removed := 0
	for _, e := range learnts[:len(learnts)/2] {
		if s.locked(e.ref) {
			continue
		}
		s.arena[e.ref] |= hdrDeleted
		removed++
	}
	if removed > 0 {
		s.compact()
	}
	if s.onReduce != nil {
		s.onReduce()
	}
}

// locked reports whether a clause is the reason of a current assignment.
func (s *Solver) locked(ref int32) bool {
	first := s.arena[ref+1]
	return s.reason[first.Var()] == ref && s.vals[first] != valueUnassigned
}

// compact slides the surviving clauses of the arena down over the deleted
// ones, keeping their order, and remaps reasons and watchers to the new
// offsets.
func (s *Solver) compact() {
	remap := make([]int32, len(s.arena)) // old ref -> new ref or -1
	w := 0
	for r := 0; r < len(s.arena); {
		h := s.arena[r]
		n := clauseWords(h)
		if h&hdrDeleted != 0 {
			remap[r] = -1
			s.numClauses--
			if h&hdrLearnt != 0 {
				s.learntCount--
			}
		} else {
			remap[r] = int32(w)
			w += copy(s.arena[w:], s.arena[r:r+n])
		}
		r += n
	}
	s.arena = s.arena[:w]
	for v, r := range s.reason {
		if r >= 0 {
			s.reason[v] = remap[r]
		}
	}
	for l, ws := range s.watches {
		kept := ws[:0]
		for _, wt := range ws {
			if nr := remap[wt.clauseRef]; nr >= 0 {
				kept = append(kept, watcher{nr, wt.blocker})
			}
		}
		s.watches[l] = kept
	}
}

// interruptCheckEvery is how many propagations pass between polls of the
// interrupt flag and the propagation budget inside Solve. Polling an atomic
// this often costs well under 1% of solve time while bounding the response
// latency to an interrupt by a few microseconds of propagation work.
const interruptCheckEvery = 1024

// Interrupt asynchronously requests that the current (and any subsequent)
// Solve call stop and return Unknown. It is safe to call from another
// goroutine; the flag is sticky until ClearInterrupt.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// SetBudget sets both per-call budgets at once (0 = unlimited) — the one
// call a proof engine needs per Solve.
func (s *Solver) SetBudget(conflicts, propagations int64) {
	s.ConflictBudget = conflicts
	s.PropagationBudget = propagations
}

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Solver) ClearInterrupt() { s.interrupted.Store(false) }

// Interrupted reports whether an interrupt is pending.
func (s *Solver) Interrupted() bool { return s.interrupted.Load() }

// WatchContext interrupts the solver as soon as ctx is cancelled or its
// deadline passes. It returns a stop function that releases the watcher
// goroutine; callers must invoke it (typically via defer) when the solving
// phase ends. The interrupt flag is NOT cleared by stop — a cancelled
// context leaves the solver interrupted, so later Solve calls keep
// returning Unknown, which is what an abandoned run wants.
func (s *Solver) WatchContext(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// When cancellation and stop race (both channels ready before
			// this goroutine was scheduled), stop wins: the solving phase
			// is already over and must not be poisoned retroactively.
			select {
			case <-quit:
				return
			default:
			}
			s.Interrupt()
		case <-quit:
		}
	}()
	return func() { close(quit) }
}

// luby computes the Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

// Solve searches for a model under the given assumptions. It returns Sat,
// Unsat, or Unknown when the conflict or propagation budget is exhausted or
// the solver is interrupted (Interrupt / WatchContext).
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.unsat {
		return Unsat
	}
	if s.interrupted.Load() {
		return Unknown
	}
	s.cancelUntil(0)
	if s.propagate() >= 0 {
		s.unsat = true
		return Unsat
	}

	restartBase := int64(100)
	var restartNum int64
	conflictsAtStart := s.Stats.Conflicts
	propsAtStart := s.Stats.Propagations
	nextPoll := s.Stats.Propagations + interruptCheckEvery
	conflictLimit := restartBase * luby(restartNum)
	conflictsThisRestart := int64(0)
	if s.maxLearnt == 0 {
		s.maxLearnt = math.Max(1000, float64(s.numClauses)/3)
	}

	for {
		if s.Stats.Propagations >= nextPoll {
			nextPoll = s.Stats.Propagations + interruptCheckEvery
			if s.interrupted.Load() ||
				(s.PropagationBudget > 0 && s.Stats.Propagations-propsAtStart >= s.PropagationBudget) {
				s.cancelUntil(0)
				return Unknown
			}
		}
		confl := s.propagate()
		if confl >= 0 {
			s.Stats.Conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return Unsat
			}
			btLevel, lbd := s.analyze(confl)
			s.cancelUntil(btLevel)
			learnt := s.analyzeTo
			if s.onLearn != nil {
				s.onLearn(learnt)
			}
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], -1)
			} else {
				ref := s.attachClause(learnt, true, lbd)
				s.Stats.Learnt++
				s.uncheckedEnqueue(learnt[0], ref)
			}
			s.decayVar()
			s.decayClause()
			if s.ConflictBudget > 0 && s.Stats.Conflicts-conflictsAtStart >= s.ConflictBudget {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		if conflictsThisRestart >= conflictLimit {
			// Restart.
			s.Stats.Restarts++
			restartNum++
			conflictLimit = restartBase * luby(restartNum)
			conflictsThisRestart = 0
			s.cancelUntil(0)
			continue
		}
		if float64(s.learntCount) > s.maxLearnt {
			s.reduceDB()
			s.maxLearnt *= 1.1
		}

		// Assumption decisions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.vals[a] {
			case valueTrue:
				// Already satisfied: open an empty decision level so the
				// index bookkeeping stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case valueFalse:
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(a, -1)
			continue
		}

		v := s.pickBranchVar()
		if v < 0 {
			return Sat
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, !s.phase[v]), -1)
	}
}

// Value returns the model value of variable v after Sat.
func (s *Solver) Value(v int) bool { return s.vals[MkLit(v, false)] == valueTrue }

// NumClauses returns the number of stored clauses (problem + learnt).
func (s *Solver) NumClauses() int { return s.numClauses }
