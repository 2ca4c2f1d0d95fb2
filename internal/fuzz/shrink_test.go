package fuzz

import (
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// TestShrinkToKernel plants a specific defect — an XOR node whose table got
// one bit flipped — inside a large random circuit and checks the shrinker
// reduces it to a handful of nodes while the property (mutant differs from
// reference on some output) keeps holding.
func TestShrinkToKernel(t *testing.T) {
	shape := DefaultShape()
	shape.Nodes = 120
	shape.Dangling = false
	ref := Generate(rand.New(rand.NewSource(11)), shape)
	var mutant *network.Network
	for seed := int64(12); mutant == nil && seed < 32; seed++ {
		m, _ := Mutate(rand.New(rand.NewSource(seed)), ref)
		if m != nil && !outputsEqual(ref, m) {
			mutant = m // unmasked mutation found
		}
	}
	if mutant == nil {
		t.Fatal("no unmasked mutation in 20 attempts")
	}

	// Property: the candidate still differs from a constant-0 network on at
	// least one input — i.e. some PO is not constant 0. This is a simple,
	// deterministic property that survives aggressive shrinking.
	failing := func(c *network.Network) bool {
		tables := NodeTables(c)
		for _, po := range c.POs() {
			if !tables[po.Driver].IsConst0() {
				return true
			}
		}
		return false
	}
	if !failing(mutant) {
		t.Skip("mutant already all-zero")
	}
	shrunk := Shrink(mutant, failing, 0)
	if err := shrunk.Check(); err != nil {
		t.Fatalf("shrunk network invalid: %v", err)
	}
	if !failing(shrunk) {
		t.Fatal("shrunk network no longer satisfies the property")
	}
	if shrunk.NumNodes() >= mutant.NumNodes() {
		t.Fatalf("shrinker made no progress: %d -> %d nodes", mutant.NumNodes(), shrunk.NumNodes())
	}
	// "Some PO is non-constant-0" minimizes to a single const-1 driver: one
	// node, one PO. Allow a little slack but demand near-minimality.
	if shrunk.NumNodes() > 3 || shrunk.NumPOs() > 1 {
		t.Fatalf("expected a near-minimal kernel, got %d nodes / %d POs", shrunk.NumNodes(), shrunk.NumPOs())
	}
	t.Logf("shrunk %d -> %d nodes, %d POs", mutant.NumNodes(), shrunk.NumNodes(), shrunk.NumPOs())
}

// TestRemoveVar pins the cofactor-and-renumber helper against direct
// truth-table cofactoring.
func TestRemoveVar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for k := 2; k <= 5; k++ {
		for trial := 0; trial < 20; trial++ {
			fn := randomTable(rng, k)
			for j := 0; j < k; j++ {
				got := removeVar(fn, j)
				if got.NumVars() != k-1 {
					t.Fatalf("k=%d j=%d: wrong arity %d", k, j, got.NumVars())
				}
				// Check every minterm of the reduced table against the
				// original with variable j forced to 0.
				for m := 0; m < got.NumMinterms(); m++ {
					low := m & ((1 << uint(j)) - 1)
					high := (m >> uint(j)) << uint(j+1)
					if got.Bit(m) != fn.Bit(high|low) {
						t.Fatalf("k=%d j=%d m=%d: removeVar mismatch", k, j, m)
					}
				}
			}
		}
	}
}

// TestShrinkKeepsFailingInput verifies Shrink never returns a passing
// circuit, even when no edit helps.
func TestShrinkKeepsFailingInput(t *testing.T) {
	net := network.New("tiny")
	a := net.AddPI("a")
	net.AddPO("f", net.AddLUT("inv", []network.NodeID{a}, tt.Var(1, 0).Not()))
	calls := 0
	prop := func(c *network.Network) bool {
		calls++
		return c.NumPIs() == 1 // only the original shape fails
	}
	out := Shrink(net, prop, 4)
	if !prop(out) {
		t.Fatal("Shrink returned a circuit that does not satisfy the property")
	}
	if calls == 0 {
		t.Fatal("Shrink never evaluated the property")
	}
}

// TestShrinkSurvivesPanickingProperty checks that a property which panics
// on a candidate rejects that candidate instead of crashing the shrink: it
// fails on the original network and on every network of at least floor
// nodes, and panics below, as a fault that crashes on small inputs does.
func TestShrinkSurvivesPanickingProperty(t *testing.T) {
	shape := DefaultShape()
	shape.Dangling = false
	net := Generate(rand.New(rand.NewSource(3)), shape)
	floor := net.NumNodes() / 2
	prop := func(c *network.Network) bool {
		if c.NumNodes() < floor {
			panic("property crashed on a small candidate")
		}
		return true
	}
	out := Shrink(net, prop, 0)
	if out.NumNodes() < floor || !prop(out) {
		t.Fatalf("shrunk to %d nodes, below the %d-node floor", out.NumNodes(), floor)
	}
	if out.NumNodes() >= net.NumNodes() {
		t.Fatalf("shrinker made no progress: %d -> %d nodes", net.NumNodes(), out.NumNodes())
	}
}

// TestShrinkFaninDropShedsCone pins pass 4 on a drop that sheds dead
// logic: dropping the first fanin of the PO's LUT removes the cone that fed
// it, so the LUT's old id lies past the end of the shrunk network before
// its second fanin is tried.
func TestShrinkFaninDropShedsCone(t *testing.T) {
	net := network.New("cone")
	a, b, c := net.AddPI("a"), net.AddPI("b"), net.AddPI("c")
	x := net.AddLUT("x", []network.NodeID{a, b}, tt.Var(2, 0).And(tt.Var(2, 1)))
	net.AddPO("f", net.AddLUT("top", []network.NodeID{x, c}, tt.Var(2, 0).Or(tt.Var(2, 1))))
	// Only the input and the fanin drop (top over c alone, 2 nodes) keep
	// the failure: every substitution of passes 2 and 3 either removes top
	// or leaves 3 nodes.
	prop := func(n *network.Network) bool {
		po := n.POs()[0].Driver
		return n.Node(po).Name == "top" && (n.NumNodes() == 5 || n.NumNodes() == 2)
	}
	out := Shrink(net, prop, 0)
	if !prop(out) || out.NumNodes() != 2 {
		t.Fatalf("shrunk to %d nodes, want top over c alone", out.NumNodes())
	}
}
