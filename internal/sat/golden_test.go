package sat

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// goldenSolveSHA pins the search itself: the status, the full Stats and the
// model of every Solve call over the seeded instances of solveGolden. It
// was recorded before the solver's data layout was last rebuilt; a layout
// change that alters any decision, watch order, learnt clause or
// reduction order moves a counter and shows here.
const goldenSolveSHA = "f9a89f084e37781ffdbcff965b80f6f39d0fec21506e0c0416ca1f51a9f9c35c"

// hashSolve folds one Solve outcome into h: status, Stats and, when Sat,
// the model of the first nvars variables.
func hashSolve(h hash.Hash, s *Solver, st Status, nvars int) {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(st))
	for _, x := range []int64{s.Stats.Decisions, s.Stats.Propagations,
		s.Stats.Conflicts, s.Stats.Restarts, s.Stats.Learnt} {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	if st == Sat {
		for v := 0; v < nvars; v++ {
			if s.Value(v) {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
	}
	h.Write(b)
}

// random3SAT adds nclauses seeded 3-literal clauses over nvars variables
// to s and reports whether the formula survived level-0 simplification.
func random3SAT(s *Solver, rng *rand.Rand, nvars, nclauses int) bool {
	for s.NumVars() < nvars {
		s.NewVar()
	}
	for i := 0; i < nclauses; i++ {
		if !s.AddClause(MkLit(rng.Intn(nvars), rng.Intn(2) == 1),
			MkLit(rng.Intn(nvars), rng.Intn(2) == 1),
			MkLit(rng.Intn(nvars), rng.Intn(2) == 1)) {
			return false
		}
	}
	return true
}

// solveGolden runs the golden workload and returns its digest and the
// number of Solve calls made.
func solveGolden() (string, int) {
	h := sha256.New()
	calls := 0
	solve := func(s *Solver, nvars int, assumptions ...Lit) Status {
		st := s.Solve(assumptions...)
		hashSolve(h, s, st, nvars)
		calls++
		return st
	}

	// PHP(9,8): thousands of conflicts, several database reductions.
	solve(php(8), 0)

	// Random 3-SAT at the threshold ratio, solved repeatedly under seeded
	// assumptions on one incremental solver. A low learnt limit makes the
	// database reduction run within and across calls.
	rng := rand.New(rand.NewSource(16))
	for inst := 0; inst < 4; inst++ {
		s := New()
		nvars := 90
		if !random3SAT(s, rng, nvars, nvars*426/100) {
			continue
		}
		s.maxLearnt = 30
		for round := 0; round < 12; round++ {
			as := make([]Lit, 1+rng.Intn(4))
			for i := range as {
				as[i] = MkLit(rng.Intn(nvars), rng.Intn(2) == 1)
			}
			solve(s, nvars, as...)
		}
	}

	// Incremental blocking-clause rounds below the threshold: every model
	// is blocked on a seeded subset of variables, so learnts, reductions
	// and level-0 units carry across calls.
	for inst := 0; inst < 3; inst++ {
		s := New()
		nvars := 70
		if !random3SAT(s, rng, nvars, nvars*38/10) {
			continue
		}
		s.maxLearnt = 20
		for round := 0; round < 40; round++ {
			if solve(s, nvars) != Sat {
				break
			}
			var block []Lit
			for v := 0; v < nvars; v++ {
				if rng.Intn(3) == 0 {
					block = append(block, MkLit(v, s.Value(v)))
				}
			}
			if !s.AddClause(block...) {
				break
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), calls
}

func TestSolveGolden(t *testing.T) {
	got, calls := solveGolden()
	t.Logf("%d Solve calls", calls)
	if got != goldenSolveSHA {
		t.Fatalf("per-Solve digest = %s, want %s (the search changed)", got, goldenSolveSHA)
	}
}
