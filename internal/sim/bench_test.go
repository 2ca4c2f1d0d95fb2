package sim

// Micro-benchmarks for the simulation core: the arena-backed kernel vs the
// retained naive reference evaluator, and signature-bucketed refinement vs
// the pairwise exactGroups reference. Run with -benchmem; the CI bench gate
// compares time/op medians against results/bench_baseline.txt.

import (
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// benchNet builds a deterministic pseudo-random LUT network: npis inputs,
// nluts LUTs with 2-4 fanins drawn from earlier nodes, functions drawn
// uniformly. Mirrors the fuzz generator's default shape without importing
// it (internal/fuzz depends on this package).
func benchNet(npis, nluts int, seed int64) *network.Network {
	rng := rand.New(rand.NewSource(seed))
	n := network.New("bench")
	ids := make([]network.NodeID, 0, npis+nluts)
	for i := 0; i < npis; i++ {
		ids = append(ids, n.AddPI(""))
	}
	for i := 0; i < nluts; i++ {
		k := 2 + rng.Intn(3)
		fanins := make([]network.NodeID, k)
		for j := range fanins {
			fanins[j] = ids[rng.Intn(len(ids))]
		}
		mask := uint64(1)<<(1<<uint(k)) - 1
		fn := tt.FromWords(k, []uint64{rng.Uint64() & mask})
		ids = append(ids, n.AddLUT("", fanins, fn))
	}
	n.AddPO("o", ids[len(ids)-1])
	return n
}

// BenchmarkSimulate compares one 64-vector batch through a ~2000-LUT
// network on the arena kernel (reused Simulator — the sweeping/runner hot
// path) against the naive reference evaluator the seed shipped.
func BenchmarkSimulate(b *testing.B) {
	net := benchNet(48, 2000, 1)
	rng := rand.New(rand.NewSource(2))
	inputs := RandomInputs(net, 1, rng)
	net.Covers(0) // warm the cover cache outside the timed region

	b.Run("arena", func(b *testing.B) {
		s := NewSimulator(net)
		s.Simulate(inputs, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Simulate(inputs, 1)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Reference(net, inputs, 1)
		}
	})
}

// TestSimulateZeroAlloc guards the arena invariant behind the tracing
// layer's zero-cost claim: a reused Simulator must not allocate on the
// batch-simulation hot path, so any instrumentation added there shows up
// as a regression here before it shows up in the bench gate.
func TestSimulateZeroAlloc(t *testing.T) {
	net := benchNet(48, 2000, 1)
	rng := rand.New(rand.NewSource(2))
	inputs := RandomInputs(net, 1, rng)
	net.Covers(0)
	s := NewSimulator(net)
	s.Simulate(inputs, 1) // warm the arena
	if allocs := testing.AllocsPerRun(10, func() {
		s.Simulate(inputs, 1)
	}); allocs != 0 {
		t.Fatalf("Simulate allocates %v objects/op on the reuse path, want 0", allocs)
	}
}

// BenchmarkRefine compares signature-bucketed refinement against the
// seed's pairwise-comparison grouping (exactGroups, retained in-package as
// the reference) on a converged partition — the common case: most
// refinement calls split nothing.
func BenchmarkRefine(b *testing.B) {
	net := benchNet(48, 2000, 4)
	rng := rand.New(rand.NewSource(5))
	vals := Simulate(net, RandomInputs(net, 1, rng), 1)
	fresh := Simulate(net, RandomInputs(net, 1, rng), 1)

	b.Run("bucketed", func(b *testing.B) {
		c := NewClasses(net, vals)
		c.Refine(fresh)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Refine(fresh)
		}
	})
	b.Run("reference", func(b *testing.B) {
		c := NewClasses(net, vals)
		c.Refine(fresh)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ci := range c.NonSingleton() {
				exactGroups(fresh, c.Members(ci))
			}
		}
	})
}

// BenchmarkRefineSplitting measures refinement that actually splits: a
// coarse partition (built from one vector) refined by 64 fresh vectors.
func BenchmarkRefineSplitting(b *testing.B) {
	net := benchNet(48, 2000, 6)
	rng := rand.New(rand.NewSource(7))
	zero := make([]Words, net.NumPIs())
	for i := range zero {
		zero[i] = Words{0}
	}
	base := Simulate(net, zero, 1)
	fresh := Simulate(net, RandomInputs(net, 1, rng), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewClasses(net, base)
		b.StartTimer()
		c.Refine(fresh)
	}
}

// BenchmarkPackVectors measures word-at-a-time packing of a partial batch.
func BenchmarkPackVectors(b *testing.B) {
	net := benchNet(48, 10, 8)
	rng := rand.New(rand.NewSource(9))
	vectors := make([][]bool, 40) // deliberately partial: 40 of 64 lanes
	for v := range vectors {
		vec := make([]bool, net.NumPIs())
		for i := range vec {
			vec[i] = rng.Intn(2) == 0
		}
		vectors[v] = vec
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackVectors(net, vectors)
	}
}
