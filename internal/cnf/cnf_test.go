package cnf

import (
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/sat"
	"simgen/internal/sim"
	"simgen/internal/tt"
)

// randomNetwork builds a random LUT network with up to 4-input LUTs.
func randomNetwork(rng *rand.Rand, npis, nluts int) *network.Network {
	n := network.New("rand")
	var ids []network.NodeID
	for i := 0; i < npis; i++ {
		ids = append(ids, n.AddPI(""))
	}
	for i := 0; i < nluts; i++ {
		k := 1 + rng.Intn(4)
		if k > len(ids) {
			k = len(ids)
		}
		fanins := make([]network.NodeID, k)
		seen := map[network.NodeID]bool{}
		for j := 0; j < k; {
			f := ids[rng.Intn(len(ids))]
			if seen[f] {
				// Allow retry with shrinking pool; duplicate fanins are
				// legal but make truth tables degenerate, so avoid them.
				if len(seen) == len(ids) {
					break
				}
				continue
			}
			seen[f] = true
			fanins[j] = f
			j++
		}
		fn := tt.New(k)
		for m := 0; m < 1<<k; m++ {
			fn.SetBit(m, rng.Intn(2) == 1)
		}
		ids = append(ids, n.AddLUT("", fanins, fn))
	}
	n.AddPO("o", ids[len(ids)-1])
	return n
}

func TestEncodingAgreesWithSimulation(t *testing.T) {
	// Property: asserting node = v is SAT iff some input vector produces v,
	// and any model, when simulated, indeed produces v at the node.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		net := randomNetwork(rng, 3+rng.Intn(3), 5+rng.Intn(10))
		root := net.POs()[0].Driver

		// Exhaustive simulation for ground truth.
		npis := net.NumPIs()
		canBe := map[bool]bool{}
		for m := 0; m < 1<<npis; m++ {
			assign := make([]bool, npis)
			for i := range assign {
				assign[i] = m&(1<<i) != 0
			}
			out := sim.SimulateVector(net, assign)
			canBe[out[root]] = true
		}

		for _, want := range []bool{false, true} {
			s := sat.New()
			e := NewEncoder(net, s)
			if !e.EncodeCone(root) {
				t.Fatal("encode failed")
			}
			s.AddClause(e.Lit(root, !want))
			status := s.Solve()
			if (status == sat.Sat) != canBe[want] {
				t.Fatalf("trial %d want=%v: solver=%v, ground truth=%v", trial, want, status, canBe[want])
			}
			if status == sat.Sat {
				out := sim.SimulateVector(net, e.Model())
				if out[root] != want {
					t.Fatalf("trial %d: model does not produce %v at root", trial, want)
				}
			}
		}
	}
}

func TestAssertDifferEquivalentNodes(t *testing.T) {
	// Two structurally different but equivalent nodes: a&b vs !(!a|!b).
	n := network.New("eq")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{a, b}, and2)
	na := n.AddLUT("na", []network.NodeID{a}, tt.Var(1, 0).Not())
	nb := n.AddLUT("nb", []network.NodeID{b}, tt.Var(1, 0).Not())
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	o := n.AddLUT("o", []network.NodeID{na, nb}, or2)
	h := n.AddLUT("h", []network.NodeID{o}, tt.Var(1, 0).Not())
	n.AddPO("p1", g)
	n.AddPO("p2", h)

	s := sat.New()
	e := NewEncoder(n, s)
	e.EncodeCone(g)
	e.EncodeCone(h)
	e.AssertDiffer(g, h)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("equivalent nodes: %v, want UNSAT", got)
	}
}

func TestAssertDifferInequivalentNodes(t *testing.T) {
	n := network.New("neq")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{a, b}, and2)
	h := n.AddLUT("h", []network.NodeID{a, b}, or2)
	n.AddPO("p1", g)
	n.AddPO("p2", h)

	s := sat.New()
	e := NewEncoder(n, s)
	e.EncodeCone(g)
	e.EncodeCone(h)
	e.AssertDiffer(g, h)
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("inequivalent nodes: %v, want SAT", got)
	}
	// The counterexample must actually separate the two nodes.
	out := sim.SimulateVector(n, e.Model())
	if out[g] == out[h] {
		t.Fatal("counterexample does not separate the nodes")
	}
}

func TestConstNodeEncoding(t *testing.T) {
	n := network.New("c")
	c1 := n.AddConst(true)
	c0 := n.AddConst(false)
	n.AddPO("k1", c1)
	n.AddPO("k0", c0)
	s := sat.New()
	e := NewEncoder(n, s)
	e.EncodeCone(c1)
	e.EncodeCone(c0)
	if s.Solve() != sat.Sat {
		t.Fatal("constants unsatisfiable")
	}
	if !s.Value(e.Var(c1)) || s.Value(e.Var(c0)) {
		t.Fatal("constant values wrong")
	}
}

func TestXorLit(t *testing.T) {
	n := network.New("x")
	a := n.AddPI("a")
	b := n.AddPI("b")
	n.AddPO("pa", a)
	n.AddPO("pb", b)
	s := sat.New()
	e := NewEncoder(n, s)
	e.EncodeCone(a)
	e.EncodeCone(b)
	x := e.XorLit(e.Lit(a, false), e.Lit(b, false))
	s.AddClause(x)
	if s.Solve() != sat.Sat {
		t.Fatal("xor should be satisfiable")
	}
	if s.Value(e.Var(a)) == s.Value(e.Var(b)) {
		t.Fatal("xor constraint violated")
	}
	// Force equal inputs: now UNSAT.
	s.AddClause(e.Lit(a, false), e.Lit(b, true))
	s.AddClause(e.Lit(a, true), e.Lit(b, false))
	if s.Solve() != sat.Unsat {
		t.Fatal("equal inputs with xor asserted should be UNSAT")
	}
}

func TestIncrementalConeEncoding(t *testing.T) {
	// Encoding one cone then another must not duplicate shared variables.
	n := network.New("shared")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	mid := n.AddLUT("mid", []network.NodeID{a, b}, and2)
	x := n.AddLUT("x", []network.NodeID{mid, a}, or2)
	y := n.AddLUT("y", []network.NodeID{mid, b}, or2)
	n.AddPO("px", x)
	n.AddPO("py", y)
	s := sat.New()
	e := NewEncoder(n, s)
	e.EncodeCone(x)
	varsAfterX := s.NumVars()
	e.EncodeCone(y)
	// y's cone adds only the variable for y itself.
	if s.NumVars() != varsAfterX+1 {
		t.Fatalf("shared cone re-encoded: %d -> %d vars", varsAfterX, s.NumVars())
	}
	if !e.Encoded(mid) || !e.Encoded(y) {
		t.Fatal("Encoded() wrong")
	}
	// The walk stops at y itself: re-encoding allocates nothing.
	if allocs := testing.AllocsPerRun(10, func() { e.EncodeCone(y) }); allocs != 0 {
		t.Fatalf("re-encoding an encoded cone allocates %v objects, want 0", allocs)
	}
}

func TestLitBeforeEncodeCone(t *testing.T) {
	// Var allows a caller to take a node's variable before EncodeCone
	// emits its clauses; the node must still be encoded, so a pair that
	// differs only in fanin order stays equivalent.
	n := network.New("commuted")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{a, b}, and2)
	h := n.AddLUT("h", []network.NodeID{b, a}, and2)
	n.AddPO("g", g)
	n.AddPO("h", h)
	s := sat.New()
	e := NewEncoder(n, s)
	e.Lit(g, false)
	if e.Encoded(g) {
		t.Fatal("Encoded() true before EncodeCone")
	}
	if got := s.Solve(e.Miter(g, h)); got != sat.Unsat {
		t.Fatalf("a&b vs b&a: %v, want UNSAT", got)
	}
	if !e.Encoded(g) || !e.Encoded(h) {
		t.Fatal("Encoded() false after Miter")
	}
}
