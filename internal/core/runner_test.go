package core

import (
	"testing"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// buildNeedleNetwork creates a network with two "needle in a haystack"
// nodes: f = AND(x0..x11) and g = AND(x0..x10) differ only on the single
// input pattern x0..x10=1, x11=0 (probability 2^-12 per random vector), so
// random simulation almost always leaves them in the same class while
// guided generation separates them immediately.
func buildNeedleNetwork() (*network.Network, network.NodeID, network.NodeID) {
	n := network.New("needle")
	var pis []network.NodeID
	for i := 0; i < 12; i++ {
		pis = append(pis, n.AddPI(""))
	}
	and2t := tt.Var(2, 0).And(tt.Var(2, 1))
	chain := func(inputs []network.NodeID) network.NodeID {
		cur := inputs[0]
		for _, x := range inputs[1:] {
			cur = n.AddLUT("", []network.NodeID{cur, x}, and2t)
		}
		return cur
	}
	g := chain(pis[:11])
	f := n.AddLUT("", []network.NodeID{g, pis[11]}, and2t)
	n.AddPO("f", f)
	n.AddPO("g", g)
	return n, f, g
}

func TestRunnerInitialClasses(t *testing.T) {
	net, f, g := buildNeedleNetwork()
	r := NewRunner(net, 1, 42)
	// With one 64-vector random round, f and g are in the same class with
	// overwhelming probability (p(split) ~ 64/4096).
	if r.Classes.ClassOf(f) != r.Classes.ClassOf(g) {
		t.Skip("random round split the needle pair (unlucky seed)")
	}
	if r.Classes.Cost() < 1 {
		t.Fatal("expected non-trivial cost")
	}
}

func TestSimGenEscapesRandomLocalMinimum(t *testing.T) {
	net, f, g := buildNeedleNetwork()

	// Random simulation: 10 more iterations of 64 vectors rarely split.
	rr := NewRunner(net, 1, 42)
	rand := NewRandom(net, 7)
	rr.Run(rand, 3)
	// (Not asserted: random may get lucky; the point is SimGen must not
	// rely on luck.)

	// SimGen: must split f from g within a few iterations.
	rs := NewRunner(net, 1, 42)
	if rs.Classes.ClassOf(f) != rs.Classes.ClassOf(g) {
		gen := NewGenerator(net, StrategySimGen, 1)
		rs.Run(gen, 5)
		if rs.Classes.ClassOf(f) == rs.Classes.ClassOf(g) {
			t.Fatal("SimGen failed to split the needle pair")
		}
	}
}

func TestRunnerCostMonotone(t *testing.T) {
	net, _, _ := buildNeedleNetwork()
	r := NewRunner(net, 1, 1)
	gen := NewGenerator(net, StrategySimGen, 2)
	prev := r.Classes.Cost()
	for _, st := range r.Run(gen, 8) {
		if st.Cost > prev {
			t.Fatalf("cost increased: %d -> %d", prev, st.Cost)
		}
		prev = st.Cost
	}
}

func TestRunnerStatsProgress(t *testing.T) {
	net, _, _ := buildNeedleNetwork()
	r := NewRunner(net, 1, 1)
	rev := NewReverse(net, 3)
	stats := r.Run(rev, 4)
	if len(stats) != 4 {
		t.Fatalf("stats length %d", len(stats))
	}
	for i, st := range stats {
		if st.Iteration != i {
			t.Fatal("iteration numbering wrong")
		}
		if st.Elapsed <= 0 {
			t.Fatal("elapsed not recorded")
		}
	}
	if r.Elapsed() <= 0 {
		t.Fatal("runner elapsed missing")
	}
}

func TestGeneratorBatchSplitsRealClasses(t *testing.T) {
	// End-to-end: random round builds classes; a SimGen batch must reduce
	// cost on the needle network.
	net, _, _ := buildNeedleNetwork()
	r := NewRunner(net, 1, 9)
	before := r.Classes.Cost()
	if before == 0 {
		t.Skip("no classes to split")
	}
	gen := NewGenerator(net, StrategySimGen, 4)
	st := r.Step(gen, 0)
	if st.Cost > before {
		t.Fatalf("cost increased after SimGen batch: %d -> %d", before, st.Cost)
	}
	if st.Vectors == 0 {
		t.Fatal("no vectors generated for splittable classes")
	}
}

func TestTargetCapSampling(t *testing.T) {
	// A class larger than targetCap is sampled down to targetCap targets.
	const size = 80
	net := network.New("cap")
	a := net.AddPI("a")
	b := net.AddPI("b")
	and2t := tt.Var(2, 0).And(tt.Var(2, 1))
	var last network.NodeID
	for i := 0; i < size; i++ {
		last = net.AddLUT("", []network.NodeID{a, b}, and2t)
	}
	net.AddPO("o", last)
	r := NewRunner(net, 1, 1)
	found := false
	for _, ci := range r.Classes.NonSingleton() {
		if len(r.Classes.Members(ci)) >= size {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a %d-member class of identical LUTs", size)
	}
	g := NewGenerator(net, StrategySimGen, 2)
	batch := g.NextBatch(r.Classes, 2)
	// Identical nodes are genuinely equivalent: no vector can split them,
	// so the batch is empty — but the generator must not panic or loop.
	_ = batch
	if g.Attempts == 0 && g.Preset == 0 {
		t.Fatal("generator never attempted the class")
	}
	if g.Attempts+g.Preset > 2*2*targetCap+4 {
		t.Fatalf("targetCap ignored: %d attempts+preset", g.Attempts+g.Preset)
	}
}

func TestRunnerZeroBatch(t *testing.T) {
	net, _, _ := buildNeedleNetwork()
	r := NewRunner(net, 0, 1) // randRounds clamped to 1
	if r.Classes == nil || r.Classes.NumClasses() == 0 {
		t.Fatal("runner not initialized")
	}
}
