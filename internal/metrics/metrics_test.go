package metrics

import (
	"math/rand"
	"testing"

	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/tt"
)

func loadNet(t *testing.T, name string) *network.Network {
	t.Helper()
	b, ok := genbench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randomVectors(rng *rand.Rand, npis, n int) [][]bool {
	out := make([][]bool, n)
	for i := range out {
		v := make([]bool, npis)
		for j := range v {
			v[j] = rng.Intn(2) == 1
		}
		out[i] = v
	}
	return out
}

func TestToggleRateBounds(t *testing.T) {
	net := loadNet(t, "misex3c")
	rng := rand.New(rand.NewSource(1))
	vecs := randomVectors(rng, net.NumPIs(), 32)
	tr := ToggleRate(net, vecs)
	if tr <= 0 || tr > 1 {
		t.Fatalf("toggle rate out of range: %v", tr)
	}
	// Identical vectors: zero toggles.
	same := [][]bool{vecs[0], vecs[0], vecs[0]}
	if ToggleRate(net, same) != 0 {
		t.Fatal("identical vectors must not toggle")
	}
	if ToggleRate(net, vecs[:1]) != 0 {
		t.Fatal("single vector has no toggles")
	}
}

func TestNodeEntropy(t *testing.T) {
	// A trivial buffer network: entropy 1 when the input alternates.
	n := network.New("buf")
	a := n.AddPI("a")
	g := n.AddLUT("g", []network.NodeID{a}, tt.Var(1, 0))
	n.AddPO("o", g)
	alternating := [][]bool{{true}, {false}, {true}, {false}}
	if e := NodeEntropy(n, alternating); e < 0.99 {
		t.Fatalf("entropy %v, want ~1", e)
	}
	constant := [][]bool{{true}, {true}}
	if e := NodeEntropy(n, constant); e != 0 {
		t.Fatalf("entropy of constant stimulus = %v", e)
	}
	if NodeEntropy(n, nil) != 0 {
		t.Fatal("empty vectors")
	}
}

func TestSplitPowerMatchesRunner(t *testing.T) {
	net := loadNet(t, "apex2")
	r := core.NewRunner(net, 1, 42)
	gen := core.NewGenerator(net, core.StrategySimGen, 1)
	vecs := gen.NextBatch(r.Classes, 8)
	if len(vecs) == 0 {
		t.Skip("no vectors generated")
	}
	power := SplitPower(net, r.Classes, vecs)
	if power < 0 {
		t.Fatalf("negative split power %d", power)
	}
	costBefore := r.Classes.Cost()
	// SplitPower must not mutate the partition.
	if r.Classes.Cost() != costBefore {
		t.Fatal("SplitPower mutated the classes")
	}
	// SimGen's targeted vectors should split at least one class here.
	if power == 0 {
		t.Fatal("SimGen batch with zero split power on apex2")
	}
}

func TestSimGenVectorsBeatRandomOnSplitPower(t *testing.T) {
	net := loadNet(t, "pdc")
	r := core.NewRunner(net, 1, 42)
	gen := core.NewGenerator(net, core.StrategySimGen, 1)
	rnd := core.NewRandom(net, 2)
	// Let random simulation exhaust the easy splits first.
	r.Run(rnd, 10)
	g := SplitPower(net, r.Classes, gen.NextBatch(r.Classes, 8))
	rv := SplitPower(net, r.Classes, rnd.NextBatch(r.Classes, 8))
	if g < rv {
		t.Fatalf("SimGen split power %d below random %d after random saturation", g, rv)
	}
}
