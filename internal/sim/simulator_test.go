package sim

import (
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// dispatchNet builds one network exercising every specialized kernel the
// compiler emits: constants, buffer, inverter, AND, NAND, 2-input XOR and
// XNOR, plus a 3-input majority that has no specialization and must take
// the generic cube path.
func dispatchNet() (*network.Network, []network.NodeID) {
	n := network.New("dispatch")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	v0 := tt.Var(2, 0)
	v1 := tt.Var(2, 1)
	maj := tt.Var(3, 0).And(tt.Var(3, 1)).
		Or(tt.Var(3, 0).And(tt.Var(3, 2))).
		Or(tt.Var(3, 1).And(tt.Var(3, 2)))
	nodes := []network.NodeID{
		n.AddConst(false),
		n.AddConst(true),
		n.AddLUT("buf", []network.NodeID{a}, tt.Var(1, 0)),
		n.AddLUT("inv", []network.NodeID{a}, tt.Var(1, 0).Not()),
		n.AddLUT("and", []network.NodeID{a, b}, v0.And(v1)),
		n.AddLUT("andn", []network.NodeID{a, b}, v0.And(v1.Not())),
		n.AddLUT("nand", []network.NodeID{a, b}, v0.And(v1).Not()),
		n.AddLUT("or", []network.NodeID{a, b}, v0.Or(v1)),
		n.AddLUT("xor", []network.NodeID{a, b}, v0.Xor(v1)),
		n.AddLUT("xnor", []network.NodeID{a, b}, v0.Xor(v1).Not()),
		n.AddLUT("maj", []network.NodeID{a, b, c}, maj),
	}
	for _, id := range nodes {
		n.AddPO("", id)
	}
	return n, nodes
}

// TestSimulatorMatchesReference pins the arena kernel to the retained naive
// evaluator on a network covering every dispatch case.
func TestSimulatorMatchesReference(t *testing.T) {
	n, _ := dispatchNet()
	rng := rand.New(rand.NewSource(11))
	for _, nwords := range []int{1, 2, 3} {
		inputs := RandomInputs(n, nwords, rng)
		want := Reference(n, inputs, nwords)
		got := NewSimulator(n).Simulate(inputs, nwords)
		for id := 0; id < n.NumNodes(); id++ {
			for w := 0; w < nwords; w++ {
				if got[id][w] != want[id][w] {
					t.Fatalf("nwords=%d node %d (%s) word %d: arena=%#x reference=%#x",
						nwords, id, n.Node(network.NodeID(id)).Name, w, got[id][w], want[id][w])
				}
			}
		}
	}
}

// TestSimulatorReuse runs one Simulator across calls with varying word
// counts: the arena must be resized and fully overwritten each time.
func TestSimulatorReuse(t *testing.T) {
	n, _ := dispatchNet()
	s := NewSimulator(n)
	rng := rand.New(rand.NewSource(12))
	for round, nwords := range []int{2, 1, 3, 1, 2} {
		inputs := RandomInputs(n, nwords, rng)
		got := s.Simulate(inputs, nwords)
		want := Reference(n, inputs, nwords)
		if s.NumWords() != nwords {
			t.Fatalf("round %d: NumWords=%d want %d", round, s.NumWords(), nwords)
		}
		for id := 0; id < n.NumNodes(); id++ {
			if !wordsEqual(got[id], want[id]) {
				t.Fatalf("round %d (nwords=%d): node %d diverged on reuse", round, nwords, id)
			}
		}
	}
}

// TestSimulatorViewsOverwritten documents the arena lifetime contract:
// Values returned by Simulate are views into the arena and are overwritten
// by the next call with the same word count.
func TestSimulatorViewsOverwritten(t *testing.T) {
	n, _ := dispatchNet()
	s := NewSimulator(n)
	zeros := make([]Words, n.NumPIs())
	ones := make([]Words, n.NumPIs())
	for i := range zeros {
		zeros[i] = Words{0}
		ones[i] = Words{^uint64(0)}
	}
	first := s.Simulate(zeros, 1)
	buf := first[n.NumPIs()-1][0] // a PI's arena word
	s.Simulate(ones, 1)
	if first[n.NumPIs()-1][0] == buf && buf != ^uint64(0) {
		t.Fatal("second Simulate did not overwrite the arena views")
	}
}

// TestSimulateConeExhaustive pins the exhaustive cone layout: the j-th PI
// in the cone's walk order, not in PI order, carries variable j over
// 1 << max(0, k-6) words, and the root matches the reference evaluator
// on those inputs.
func TestSimulateConeExhaustive(t *testing.T) {
	n := network.New("cone")
	pis := make([]network.NodeID, 8)
	for i := range pis {
		pis[i] = n.AddPI("")
	}
	xor2 := tt.Var(2, 0).Xor(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	// The root folds pis[7..1] in reverse; pis[0] stays outside the cone,
	// so k = 7 and the cone takes 2 words.
	root := pis[7]
	for i := 6; i >= 1; i-- {
		fn := xor2
		if i%3 == 0 {
			fn = or2
		}
		root = n.AddLUT("", []network.NodeID{root, pis[i]}, fn)
	}
	n.AddPO("", root)
	c := network.NewCone(n)
	c.Add(root, nil)
	vals := NewSimulator(n).SimulateConeExhaustive(c)

	const nwords = 2
	inputs := make([]Words, n.NumPIs())
	for i := range inputs {
		inputs[i] = make(Words, nwords)
	}
	j := 0
	for _, id := range c.Nodes {
		if n.Node(id).Kind != network.KindPI {
			continue
		}
		for w := range inputs[id] {
			inputs[id][w] = ExhaustiveWord(j, w)
		}
		if !wordsEqual(vals[id], inputs[id]) {
			t.Fatalf("PI %d (variable %d): got %#x, want %#x", id, j, vals[id], inputs[id])
		}
		j++
	}
	if j != 7 {
		t.Fatalf("cone holds %d PIs, want 7", j)
	}
	if want := Reference(n, inputs, nwords)[root]; !wordsEqual(vals[root], want) {
		t.Fatalf("root: got %#x, want %#x", vals[root], want)
	}
}

// TestRefineNMasksPadding verifies that RefineN ignores lanes beyond nbits:
// garbage in the padding bits must not split classes.
func TestRefineNMasksPadding(t *testing.T) {
	n := network.New("mask")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{a, b}, and2)
	h := n.AddLUT("h", []network.NodeID{b, a}, and2)
	n.AddPO("o1", g)
	n.AddPO("o2", h)
	rng := rand.New(rand.NewSource(15))
	c := NewClasses(n, Simulate(n, RandomInputs(n, 1, rng), 1))
	if c.ClassOf(g) != c.ClassOf(h) {
		t.Fatal("equivalent pair not together initially")
	}
	// Hand-crafted values: identical in lane 0, different in lanes 1..63.
	vals := make(Values, n.NumNodes())
	for id := range vals {
		vals[id] = Words{0}
	}
	vals[g] = Words{0xfffffffffffffffe}
	vals[h] = Words{0x0000000000000000}
	if c.RefineN(vals, 1) != 0 {
		t.Fatal("RefineN split on masked padding lanes")
	}
	if c.ClassOf(g) != c.ClassOf(h) {
		t.Fatal("padding lanes separated an equivalent pair")
	}
	// The same values over all 64 lanes must split.
	if c.Refine(vals) == 0 {
		t.Fatal("Refine ignored a real difference")
	}
	if c.ClassOf(g) == c.ClassOf(h) {
		t.Fatal("real difference did not separate the pair")
	}
}

// TestMembersSnapshotStable is the regression test for the shared-backing
// bug: slices returned by Members must not be mutated by a later Remove or
// Refine on the same class.
func TestMembersSnapshotStable(t *testing.T) {
	n := network.New("snap")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	var luts []network.NodeID
	for i := 0; i < 4; i++ {
		luts = append(luts, n.AddLUT("", []network.NodeID{a, b}, and2))
	}
	n.AddPO("o", luts[0])
	c := NewClasses(n, Simulate(n, []Words{{0}, {0}}, 1))
	ci := c.ClassOf(luts[0])
	snap := c.Members(ci)
	orig := append([]network.NodeID(nil), snap...)

	c.Remove(luts[1])
	for i, id := range orig {
		if snap[i] != id {
			t.Fatalf("Remove mutated a handed-out Members snapshot at %d: %v -> %v", i, id, snap[i])
		}
	}
	if len(c.Members(ci)) != len(orig)-1 {
		t.Fatal("Remove did not shrink the class")
	}

	// A split must also leave the snapshot intact.
	snap2 := c.Members(ci)
	orig2 := append([]network.NodeID(nil), snap2...)
	vals := make(Values, n.NumNodes())
	for id := range vals {
		vals[id] = Words{0}
	}
	vals[orig2[len(orig2)-1]] = Words{1}
	c.Refine(vals)
	for i, id := range orig2 {
		if snap2[i] != id {
			t.Fatalf("Refine mutated a handed-out Members snapshot at %d", i)
		}
	}
}

// TestNonSingletonSnapshotStable: the slice handed out by NonSingleton must
// survive later partition mutations (the sweeper ranges over it while
// refining).
func TestNonSingletonSnapshotStable(t *testing.T) {
	n := network.New("nssnap")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	for i := 0; i < 3; i++ {
		n.AddLUT("", []network.NodeID{a, b}, and2)
	}
	var last network.NodeID
	for i := 0; i < 2; i++ {
		last = n.AddLUT("", []network.NodeID{a, b}, or2)
	}
	n.AddPO("o", last)
	rng := rand.New(rand.NewSource(16))
	c := NewClasses(n, Simulate(n, RandomInputs(n, 4, rng), 4))
	ns := c.NonSingleton()
	snap := append([]int(nil), ns...)
	// Mutate: remove a member, then query again.
	c.Remove(c.Members(ns[0])[1])
	_ = c.NonSingleton()
	for i := range snap {
		if ns[i] != snap[i] {
			t.Fatalf("NonSingleton snapshot mutated at %d", i)
		}
	}
}
