package sat

import (
	"math/rand"
	"testing"
)

// BenchmarkSolve measures raw CDCL throughput on a fixed pigeonhole
// instance and on a seeded batch of random 3-SAT instances at the
// satisfiability threshold. Each op builds and solves its instances from
// scratch; props/s is propagations per second of wall time, the number the
// hot-path layout is tuned for.
func BenchmarkSolve(b *testing.B) {
	run := func(b *testing.B, solve func() int64) {
		var props int64
		for i := 0; i < b.N; i++ {
			props += solve()
		}
		b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
	}
	b.Run("php8", func(b *testing.B) {
		run(b, func() int64 {
			s := php(7)
			if s.Solve() != Unsat {
				b.Fatal("PHP(8,7) not UNSAT")
			}
			return s.Stats.Propagations
		})
	})
	b.Run("rand3sat", func(b *testing.B) {
		run(b, func() int64 {
			rng := rand.New(rand.NewSource(3))
			var props int64
			for inst := 0; inst < 8; inst++ {
				s := New()
				nvars := 120
				if random3SAT(s, rng, nvars, nvars*426/100) {
					s.Solve()
				}
				props += s.Stats.Propagations
			}
			return props
		})
	})
}
