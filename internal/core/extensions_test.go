package core

import (
	"testing"

	"simgen/internal/network"
	"simgen/internal/tt"
)

func TestOneDistanceFlipsExactlyOneBit(t *testing.T) {
	net, _, _ := buildNeedleNetwork()
	o := NewOneDistance(net, 1, 4)
	if o.Name() != "1-distance" {
		t.Fatal("name wrong")
	}
	base := make([]bool, net.NumPIs())
	o.pool = [][]bool{base} // fix a single known base
	batch := o.NextBatch(nil, 16)
	for _, v := range batch {
		flips := 0
		for i := range v {
			if v[i] != base[i] {
				flips++
			}
		}
		if flips != 1 {
			t.Fatalf("vector differs in %d bits, want 1", flips)
		}
	}
}

func TestOneDistancePoolManagement(t *testing.T) {
	net, _, _ := buildNeedleNetwork()
	o := NewOneDistance(net, 1, 2)
	o.PoolCap = 3
	for i := 0; i < 10; i++ {
		v := make([]bool, net.NumPIs())
		o.AddBase(v)
	}
	if len(o.pool) > 3 {
		t.Fatalf("pool exceeded cap: %d", len(o.pool))
	}
}

func TestSATVectorSplitsClasses(t *testing.T) {
	net, f, g := buildNeedleNetwork()
	r := NewRunner(net, 1, 42)
	if r.Classes.ClassOf(f) != r.Classes.ClassOf(g) {
		t.Skip("random round split the needle pair")
	}
	src := NewSATVector(net, 1)
	st := r.Step(src, 0)
	if src.SATCalls == 0 {
		t.Fatal("no SAT calls counted")
	}
	if st.Vectors == 0 {
		t.Fatal("SAT source produced no vectors for a splittable class")
	}
	// The needle pair is inequivalent, so SAT vectors must eventually
	// split it.
	for i := 1; i < 10 && r.Classes.ClassOf(f) == r.Classes.ClassOf(g); i++ {
		r.Step(src, i)
	}
	if r.Classes.ClassOf(f) == r.Classes.ClassOf(g) {
		t.Fatal("SAT vectors failed to split an inequivalent pair")
	}
}

func TestSATVectorSkipsEquivalentPairs(t *testing.T) {
	// A class of two genuinely equivalent nodes: the source must return
	// no vectors (UNSAT) rather than bogus ones.
	n := network.New("eq")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2t := tt.Var(2, 0).And(tt.Var(2, 1))
	g1 := n.AddLUT("", []network.NodeID{a, b}, and2t)
	g2 := n.AddLUT("", []network.NodeID{b, a}, and2t)
	n.AddPO("p", g1)
	n.AddPO("q", g2)
	r := NewRunner(n, 1, 1)
	if r.Classes.ClassOf(g1) != r.Classes.ClassOf(g2) {
		t.Fatal("equivalent pair not classed together")
	}
	src := NewSATVector(n, 1)
	batch := src.NextBatch(r.Classes, 4)
	if len(batch) != 0 {
		t.Fatalf("SAT source fabricated %d vectors for an equivalent pair", len(batch))
	}
	if src.SATCalls == 0 {
		t.Fatal("solver never consulted")
	}
}
