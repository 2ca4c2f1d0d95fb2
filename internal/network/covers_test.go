package network

import (
	"math/rand"
	"slices"
	"testing"

	"simgen/internal/tt"
)

// checkCovers fails unless node id's covers are the ISOP covers of fn.
func checkCovers(t *testing.T, n *Network, id NodeID, fn tt.Table) (on, off tt.Cover) {
	t.Helper()
	on, off = n.Covers(id)
	wantOn, wantOff := tt.OnOffCovers(fn)
	if !slices.Equal(on, wantOn) || !slices.Equal(off, wantOff) {
		t.Fatalf("node %d: covers %v / %v, want %v / %v", id, on, off, wantOn, wantOff)
	}
	return on, off
}

// TestCoversSharedPerFunction checks that nodes computing one function of
// at most 6 inputs get the very same cover slices, and others do not.
func TestCoversSharedPerFunction(t *testing.T) {
	n := New("share")
	a, b, c := n.AddPI("a"), n.AddPI("b"), n.AddPI("c")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	x := n.AddLUT("x", []NodeID{a, b}, and2)
	y := n.AddLUT("y", []NodeID{b, c}, tt.Var(2, 0).And(tt.Var(2, 1)))
	z := n.AddLUT("z", []NodeID{x, y}, or2)
	xOn, xOff := checkCovers(t, n, x, and2)
	yOn, yOff := checkCovers(t, n, y, and2)
	if &xOn[0] != &yOn[0] || &xOff[0] != &yOff[0] {
		t.Fatal("two nodes with one function do not share their covers")
	}
	if zOn, _ := checkCovers(t, n, z, or2); &zOn[0] == &xOn[0] {
		t.Fatal("different functions share a cover")
	}
}

// TestCoversWideFunction checks that a 7-input node gets a cover of its
// own, equal to tt.OnOffCovers, even when another node computes the same
// function.
func TestCoversWideFunction(t *testing.T) {
	n := New("wide")
	pis := make([]NodeID, 7)
	for i := range pis {
		pis[i] = n.AddPI("")
	}
	rng := rand.New(rand.NewSource(1))
	fn := tt.New(7)
	for m := 0; m < 1<<7; m++ {
		fn.SetBit(m, rng.Intn(2) == 1)
	}
	w1 := n.AddLUT("w1", pis, fn)
	w2 := n.AddLUT("w2", pis, fn.Clone())
	on1, _ := checkCovers(t, n, w1, fn)
	on2, _ := checkCovers(t, n, w2, fn)
	if &on1[0] == &on2[0] {
		t.Fatal("7-input nodes share a cover")
	}
}

// TestCoversAfterGrowthAndEdit checks that Covers answers for a node added
// after the cache was filled, and that after an in-place function edit
// and Invalidate it returns the new function's cover.
func TestCoversAfterGrowthAndEdit(t *testing.T) {
	n, ids := buildDiamond(t)
	for id := 0; id < n.NumNodes(); id++ {
		n.Covers(NodeID(id))
	}
	nand2 := tt.Var(2, 0).And(tt.Var(2, 1)).Not()
	w := n.AddLUT("w", []NodeID{ids["a"], ids["z"]}, nand2)
	checkCovers(t, n, w, nand2)

	// Edit x in place the way fuzz.Mutate does: a fresh table, then
	// Invalidate. y keeps its OR function, which x now computes too.
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	n.Node(ids["x"]).Func = or2
	n.Invalidate()
	xOn, _ := checkCovers(t, n, ids["x"], or2)
	yOn, _ := checkCovers(t, n, ids["y"], or2)
	if &xOn[0] != &yOn[0] {
		t.Fatal("edited node does not share the cover of its new function")
	}
	checkCovers(t, n, w, nand2)
}
