package mapper

import (
	"math/rand"
	"testing"

	"simgen/internal/aig"
	"simgen/internal/network"
	"simgen/internal/sim"
)

// randomAIG builds a random DAG of npис PIs and nands AND nodes with random
// complemented edges, registering a handful of POs.
func randomAIG(rng *rand.Rand, npis, nands, npos int) *aig.Graph {
	g := aig.New("rand")
	var lits []aig.Lit
	for i := 0; i < npis; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < nands; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < npos; i++ {
		g.AddPO("", lits[len(lits)-1-rng.Intn(min(len(lits), nands/2+1))].NotIf(rng.Intn(2) == 1))
	}
	return g
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// checkEquivalent verifies that the mapped network computes the same PO
// functions as the AIG on random bit-parallel vectors.
func checkEquivalent(t *testing.T, g *aig.Graph, net *network.Network, rng *rand.Rand) {
	t.Helper()
	if net.NumPIs() != g.NumPIs() || net.NumPOs() != len(g.POs()) {
		t.Fatalf("interface mismatch: net %v vs aig %s", net.Stats(), g.Stats())
	}
	for round := 0; round < 4; round++ {
		aigIn := make([]uint64, g.NumPIs())
		netIn := make([]sim.Words, g.NumPIs())
		for i := range aigIn {
			w := rng.Uint64()
			aigIn[i] = w
			netIn[i] = sim.Words{w}
		}
		aigVals := g.Simulate(aigIn)
		netVals := sim.Simulate(net, netIn, 1)
		for p, po := range g.POs() {
			want := aig.LitValue(aigVals, po.Lit)
			got := netVals[net.POs()[p].Driver][0]
			if want != got {
				t.Fatalf("round %d PO %d: aig=%016x net=%016x", round, p, want, got)
			}
		}
	}
}

func TestMapRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomAIG(rng, 4+rng.Intn(8), 20+rng.Intn(200), 1+rng.Intn(5))
		net, err := Map(g, DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkEquivalent(t, g, net, rng)
	}
}

// TestMapRespectsK maps random graphs at several K. Above K=6 the graphs
// get more PIs, so that some LUT is wider than one 64-bit truth-table word.
func TestMapRespectsK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{2, 3, 4, 6, 7, 8, 10} {
		npis := 8
		if k > 6 {
			npis = 14
		}
		g := randomAIG(rng, npis, 150, 3)
		net, err := Map(g, Options{K: k, CutsPerNode: 8})
		if err != nil {
			t.Fatal(err)
		}
		widest := 0
		for id := 0; id < net.NumNodes(); id++ {
			nd := net.Node(network.NodeID(id))
			if nd.Kind == network.KindLUT && len(nd.Fanins) > k {
				t.Fatalf("K=%d violated: LUT with %d inputs", k, len(nd.Fanins))
			}
			widest = max(widest, len(nd.Fanins))
		}
		if k > 6 && widest <= 6 {
			t.Fatalf("K=%d: widest LUT has %d inputs, so no multi-word cut function ran", k, widest)
		}
		checkEquivalent(t, g, net, rng)
	}
}

// TestDedupKeepsSignatureCollisions hands the dedup step two distinct leaf
// sets with one signature. Both must become candidates: a rule that
// trusted the signature alone would drop the second.
func TestDedupKeepsSignatureCollisions(t *testing.T) {
	const sig = 1<<1 | 1<<2 // the signature of {1, 2} and of {65, 66}
	var s candidates
	s.buf = append(s.buf, 1, 2)
	if s.add(0, sig) == nil {
		t.Fatal("first leaf set dropped")
	}
	s.buf = append(s.buf, 65, 66)
	if s.add(2, sig) == nil {
		t.Fatal("distinct leaf set with a shared signature dropped")
	}
	s.buf = append(s.buf, 1, 2)
	if s.add(4, sig) != nil {
		t.Fatal("duplicate leaf set kept")
	}
	if len(s.set) != 2 || len(s.buf) != 4 {
		t.Fatalf("%d candidates over %d leaves, want 2 over 4", len(s.set), len(s.buf))
	}
}

func TestMapReducesNodeCount(t *testing.T) {
	// A 16-bit adder has many 2-input ANDs; 6-LUT mapping must use far
	// fewer LUTs than AND nodes.
	g := aig.New("add16")
	a := g.NewWordPIs("a", 16)
	b := g.NewWordPIs("b", 16)
	s, c := g.Add(a, b, aig.False)
	g.AddPOWord("s", s)
	g.AddPO("c", c)
	net, err := Map(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if net.NumLUTs() >= g.NumAnds() {
		t.Fatalf("mapping did not compress: %d LUTs vs %d ANDs", net.NumLUTs(), g.NumAnds())
	}
	rng := rand.New(rand.NewSource(3))
	checkEquivalent(t, g, net, rng)
}

func TestMapReducesDepth(t *testing.T) {
	g := aig.New("chain")
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	for i := 0; i < 10; i++ {
		x = g.And(x, a.NotIf(i%2 == 0))
	}
	g.AddPO("o", x)
	net, err := Map(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if net.Depth() >= g.Depth() {
		t.Fatalf("LUT depth %d should beat AIG depth %d", net.Depth(), g.Depth())
	}
}

func TestMapComplementedAndConstPOs(t *testing.T) {
	g := aig.New("po")
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	g.AddPO("pos", x)
	g.AddPO("neg", x.Not())
	g.AddPO("cf", aig.False)
	g.AddPO("ct", aig.True)
	net, err := Map(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := sim.SimulateVector(net, []bool{true, true})
	if !out[net.POs()[0].Driver] || out[net.POs()[1].Driver] {
		t.Fatal("complemented PO wrong")
	}
	if out[net.POs()[2].Driver] || !out[net.POs()[3].Driver] {
		t.Fatal("constant POs wrong")
	}
}

func TestMapDropsDeadLogic(t *testing.T) {
	g := aig.New("dead")
	a := g.AddPI("a")
	b := g.AddPI("b")
	live := g.And(a, b)
	g.And(a.Not(), b) // dead
	g.AddPO("o", live)
	net, err := Map(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if net.NumLUTs() != 1 {
		t.Fatalf("dead logic not dropped: %d LUTs", net.NumLUTs())
	}
}

func TestMapRejectsBadK(t *testing.T) {
	g := aig.New("bad")
	a := g.AddPI("a")
	g.AddPO("o", a)
	if _, err := Map(g, Options{K: 1}); err == nil {
		t.Fatal("K=1 accepted")
	}
	if _, err := Map(g, Options{K: 99}); err == nil {
		t.Fatal("K=99 accepted")
	}
}

func TestMapPIOnlyPO(t *testing.T) {
	g := aig.New("wire")
	a := g.AddPI("a")
	g.AddPO("o", a)
	g.AddPO("no", a.Not())
	net, err := Map(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := sim.SimulateVector(net, []bool{true})
	if !out[net.POs()[0].Driver] || out[net.POs()[1].Driver] {
		t.Fatal("PI wiring wrong")
	}
}

func TestMapMetamorphicBalance(t *testing.T) {
	// Mapping a graph and mapping its balanced form must produce
	// functionally identical networks — a metamorphic check tying the
	// mapper, the balancer, and the simulator together.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := randomAIG(rng, 6, 80, 3)
		netA, err := Map(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		netB, err := Map(aig.Balance(g), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			inA := make([]sim.Words, netA.NumPIs())
			inB := make([]sim.Words, netB.NumPIs())
			for i := range inA {
				w := rng.Uint64()
				inA[i] = sim.Words{w}
				inB[i] = sim.Words{w}
			}
			va := sim.Simulate(netA, inA, 1)
			vb := sim.Simulate(netB, inB, 1)
			for p := range netA.POs() {
				if va[netA.POs()[p].Driver][0] != vb[netB.POs()[p].Driver][0] {
					t.Fatalf("trial %d: balance+map changed PO %d", trial, p)
				}
			}
		}
	}
}
