package fuzz

import (
	"math/rand"
	"sort"
	"testing"

	"simgen/internal/network"
	"simgen/internal/sim"
)

// TestKernelDifferential is the arena-kernel differential oracle: on 200+
// fuzz-generated networks spanning every shape preset, the production
// simulator (sim.Simulator, both one-shot and reused) must agree bit for
// bit with the retained naive reference evaluator — including a reused
// instance after random input mutations and the cone-restricted path
// (SimulateCone over a network.Cone) followed by a full Simulate.
func TestKernelDifferential(t *testing.T) {
	const iterations = 240
	rng := rand.New(rand.NewSource(42))
	shapes := Shapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)

	for it := 0; it < iterations; it++ {
		name := names[it%len(names)]
		net := Generate(rng, shapes[name])
		if err := net.Check(); err != nil {
			t.Fatalf("iteration %d shape %q: generator produced invalid network: %v", it, name, err)
		}
		const nwords = 2
		inputs := sim.RandomInputs(net, nwords, rng)
		want := sim.Reference(net, inputs, nwords)

		// One-shot path (what package-level Simulate delegates to).
		got := sim.Simulate(net, inputs, nwords)
		diffValues(t, it, name, "one-shot", net.NumNodes(), got, want)

		// Reused-simulator path: the same instance across two batches.
		s := sim.NewSimulator(net)
		s.Simulate(sim.RandomInputs(net, nwords, rng), nwords)
		got = s.Simulate(inputs, nwords)
		diffValues(t, it, name, "reused", net.NumNodes(), got, want)

		// Mutated-input path: change a random subset of PIs and simulate
		// again on the same instance; it must match a full reference run.
		cur := make([]sim.Words, len(inputs))
		for i := range inputs {
			cur[i] = append(sim.Words(nil), inputs[i]...)
		}
		for round := 0; round < 3; round++ {
			for i := range cur {
				if rng.Intn(2) == 0 {
					cur[i][rng.Intn(nwords)] = rng.Uint64()
				}
			}
			got = s.Simulate(cur, nwords)
			want = sim.Reference(net, cur, nwords)
			diffValues(t, it, name, "mutated", net.NumNodes(), got, want)
		}

		// Cone path: a random root pair's union cone on the same instance
		// must match the reference rows bit for bit, and a full Simulate
		// afterwards must lay the whole arena out again. A separate stream
		// keeps the networks of later iterations unchanged.
		crng := rand.New(rand.NewSource(int64(it)))
		cone := network.NewCone(net)
		piIdx := make(map[network.NodeID]int, net.NumPIs())
		for i, pi := range net.PIs() {
			piIdx[pi] = i
		}
		for _, cw := range []int{1, 4, 64} {
			cin := sim.RandomInputs(net, cw, crng)
			cwant := sim.Reference(net, cin, cw)
			roots := []network.NodeID{
				network.NodeID(crng.Intn(net.NumNodes())),
				network.NodeID(crng.Intn(net.NumNodes())),
			}
			cone.Reset()
			for _, r := range roots {
				cone.Add(r, nil)
			}
			got = s.SimulateCone(cone, cw, func(pi network.NodeID, dst sim.Words) {
				copy(dst, cin[piIdx[pi]])
			})
			for _, r := range roots {
				for _, id := range net.FaninCone(r) {
					for w := range cwant[id] {
						if got[id][w] != cwant[id][w] {
							t.Fatalf("iteration %d shape %q path cone/%d: roots %v node %d word %d: cone=%#x reference=%#x",
								it, name, cw, roots, id, w, got[id][w], cwant[id][w])
						}
					}
				}
			}
			// Same word count as the cone call: the case where a stale
			// layout would otherwise be reused.
			got = s.Simulate(cin, cw)
			diffValues(t, it, name, "full-after-cone", net.NumNodes(), got, cwant)
		}
	}
}

func diffValues(t *testing.T, it int, shape, path string, nnodes int, got, want sim.Values) {
	t.Helper()
	for id := 0; id < nnodes; id++ {
		for w := range want[id] {
			if got[id][w] != want[id][w] {
				t.Fatalf("iteration %d shape %q path %s: node %d word %d: arena=%#x reference=%#x",
					it, shape, path, id, w, got[id][w], want[id][w])
			}
		}
	}
}
