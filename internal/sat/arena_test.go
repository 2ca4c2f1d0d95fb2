package sat

import (
	"math/rand"
	"testing"
)

// checkInvariants walks the clause arena and checks it against the watch
// lists, the reasons and the clause counters:
//   - every live clause is watched exactly twice, at ¬lits[0] and ¬lits[1];
//   - every watcher points at a live clause header;
//   - every assigned variable's reason clause has that variable at lits[0];
//   - learntCount and NumClauses match the walk.
func checkInvariants(t *testing.T, s *Solver) {
	t.Helper()
	watched := map[int32]int{} // live clause ref -> watchers seen
	clauses, learnts := 0, 0
	for r := 0; r < len(s.arena); r += clauseWords(s.arena[r]) {
		h := s.arena[r]
		if h&hdrDeleted != 0 {
			t.Fatalf("deleted clause left in the arena at %d", r)
		}
		if h>>hdrSizeShift < 2 {
			t.Fatalf("clause at %d has %d literals", r, h>>hdrSizeShift)
		}
		watched[int32(r)] = 0
		clauses++
		if h&hdrLearnt != 0 {
			learnts++
		}
	}
	if clauses != s.NumClauses() || learnts != s.learntCount {
		t.Fatalf("arena walk: %d clauses, %d learnt; counters say %d, %d",
			clauses, learnts, s.NumClauses(), s.learntCount)
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			n, live := watched[w.clauseRef]
			if !live {
				t.Fatalf("watcher in list %v points at %d, not a live clause header", Lit(l), w.clauseRef)
			}
			lits := s.clauseLits(w.clauseRef)
			if Lit(l) != lits[0].Not() && Lit(l) != lits[1].Not() {
				t.Fatalf("clause %d %v watched at %v, not at the negation of a watched literal",
					w.clauseRef, lits, Lit(l))
			}
			watched[w.clauseRef] = n + 1
		}
	}
	for ref, n := range watched {
		if n != 2 {
			t.Fatalf("clause %d %v has %d watchers, want 2", ref, s.clauseLits(ref), n)
		}
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r < 0 {
			continue
		}
		if _, live := watched[r]; !live {
			t.Fatalf("reason %d of %v is not a live clause header", r, l)
		}
		if first := s.clauseLits(r)[0]; first != l {
			t.Fatalf("reason %d of %v has %v at lits[0]", r, l, first)
		}
	}
}

// watchInvariants checks the arena after every reduction of s and
// returns a pointer to the number of reductions seen. PHP(9,8) drives it
// in TestPigeonholeHardTriggersReduceDB.
func watchInvariants(t *testing.T, s *Solver) *int {
	reductions := new(int)
	s.onReduce = func() {
		*reductions++
		checkInvariants(t, s)
	}
	return reductions
}

// TestArenaInvariantsIncremental drives random CNFs through incremental
// Solve calls, under assumptions and with model-blocking clauses, at a
// learnt limit low enough that nearly every call compacts the arena.
func TestArenaInvariantsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	total := 0
	for inst := 0; inst < 12; inst++ {
		s := New()
		nvars := 40 + rng.Intn(40)
		if !random3SAT(s, rng, nvars, nvars*(38+rng.Intn(6))/10) {
			continue
		}
		s.maxLearnt = 8
		reductions := watchInvariants(t, s)
		for round := 0; round < 20; round++ {
			var as []Lit
			for i := rng.Intn(3); i > 0; i-- {
				as = append(as, MkLit(rng.Intn(nvars), rng.Intn(2) == 1))
			}
			if s.Solve(as...) != Sat {
				continue
			}
			var block []Lit
			for v := 0; v < nvars; v++ {
				if rng.Intn(2) == 0 {
					block = append(block, MkLit(v, s.Value(v)))
				}
			}
			if !s.AddClause(block...) {
				break
			}
			checkInvariants(t, s)
		}
		total += *reductions
	}
	if total == 0 {
		t.Fatal("no learnt-database reduction ran")
	}
	t.Logf("%d reductions checked", total)
}
