package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// buildTestNet returns a network with a redundant pair: g and h both compute
// a AND b, while x computes a OR b.
func buildTestNet() (*network.Network, map[string]network.NodeID) {
	n := network.New("t")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{a, b}, and2)
	h := n.AddLUT("h", []network.NodeID{b, a}, and2)
	x := n.AddLUT("x", []network.NodeID{a, b}, or2)
	n.AddPO("o1", g)
	n.AddPO("o2", h)
	n.AddPO("o3", x)
	return n, map[string]network.NodeID{"a": a, "b": b, "g": g, "h": h, "x": x}
}

func TestSimulateVectorExhaustive(t *testing.T) {
	n, ids := buildTestNet()
	for m := 0; m < 4; m++ {
		a := m&1 != 0
		b := m&2 != 0
		out := SimulateVector(n, []bool{a, b})
		if out[ids["g"]] != (a && b) || out[ids["h"]] != (a && b) {
			t.Fatalf("m=%d: AND nodes wrong", m)
		}
		if out[ids["x"]] != (a || b) {
			t.Fatalf("m=%d: OR node wrong", m)
		}
	}
}

func TestBitParallelMatchesScalar(t *testing.T) {
	// Property: each bit lane of a bit-parallel run equals an independent
	// scalar simulation.
	n, _ := buildTestNet()
	rng := rand.New(rand.NewSource(1))
	inputs := RandomInputs(n, 2, rng)
	vals := Simulate(n, inputs, 2)
	for lane := 0; lane < 128; lane++ {
		assign := make([]bool, n.NumPIs())
		for i := range assign {
			assign[i] = inputs[i][lane/64]&(1<<(uint(lane)%64)) != 0
		}
		scalar := SimulateVector(n, assign)
		for id := 0; id < n.NumNodes(); id++ {
			got := vals[id][lane/64]&(1<<(uint(lane)%64)) != 0
			if got != scalar[id] {
				t.Fatalf("lane %d node %d: parallel=%v scalar=%v", lane, id, got, scalar[id])
			}
		}
	}
}

func TestBitParallelQuick(t *testing.T) {
	// Random 6-input LUT vs direct table evaluation across lanes.
	check := func(w uint64, in0, in1, in2, in3, in4, in5 uint64) bool {
		n := network.New("q")
		var pis []network.NodeID
		for i := 0; i < 6; i++ {
			pis = append(pis, n.AddPI(string(rune('a'+i))))
		}
		fn := tt.FromWords(6, []uint64{w})
		l := n.AddLUT("l", pis, fn)
		n.AddPO("o", l)
		inWords := []Words{{in0}, {in1}, {in2}, {in3}, {in4}, {in5}}
		vals := Simulate(n, inWords, 1)
		for lane := 0; lane < 64; lane++ {
			m := 0
			for i := 0; i < 6; i++ {
				if inWords[i][0]&(1<<uint(lane)) != 0 {
					m |= 1 << i
				}
			}
			got := vals[l][0]&(1<<uint(lane)) != 0
			if got != fn.Bit(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConstSimulation(t *testing.T) {
	n := network.New("c")
	a := n.AddPI("a")
	c1 := n.AddConst(true)
	c0 := n.AddConst(false)
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{a, c1}, and2)
	n.AddPO("o", g)
	rng := rand.New(rand.NewSource(2))
	inputs := RandomInputs(n, 1, rng)
	vals := Simulate(n, inputs, 1)
	if vals[c1][0] != ^uint64(0) || vals[c0][0] != 0 {
		t.Fatal("constant simulation wrong")
	}
	if vals[g][0] != inputs[0][0] {
		t.Fatal("AND with const-1 should pass input through")
	}
}

func TestPackVectors(t *testing.T) {
	n, ids := buildTestNet()
	vectors := [][]bool{
		{false, false},
		{true, false},
		{false, true},
		{true, true},
	}
	inputs, nwords := PackVectors(n, vectors)
	if nwords != 1 {
		t.Fatalf("nwords = %d", nwords)
	}
	vals := Simulate(n, inputs, nwords)
	for v, vec := range vectors {
		want := vec[0] && vec[1]
		got := vals[ids["g"]][0]&(1<<uint(v)) != 0
		if got != want {
			t.Fatalf("vector %d: got %v want %v", v, got, want)
		}
	}
	// Empty pack.
	if in, nw := PackVectors(n, nil); in != nil || nw != 0 {
		t.Fatal("empty pack should return nil")
	}
}

func TestClassesInitialPartition(t *testing.T) {
	n, ids := buildTestNet()
	rng := rand.New(rand.NewSource(3))
	vals := Simulate(n, RandomInputs(n, 4, rng), 4)
	c := NewClasses(n, vals)
	// g and h are functionally identical so they must share a class; x
	// must not join them (a OR b != a AND b on random vectors whp).
	if c.ClassOf(ids["g"]) != c.ClassOf(ids["h"]) {
		t.Fatal("equivalent nodes separated")
	}
	if c.ClassOf(ids["x"]) == c.ClassOf(ids["g"]) {
		t.Fatal("OR grouped with AND")
	}
	if c.ClassOf(ids["a"]) != -1 {
		t.Fatal("PI should be unclassified")
	}
	if c.Cost() < 1 {
		t.Fatalf("cost = %d, want >= 1", c.Cost())
	}
}

func TestRefineSplitsAndIsMonotone(t *testing.T) {
	// Build: g = a&b, h2 = a&b computed via (a|b)&a&b? Instead use two
	// nodes equal on the all-zero vector but different in general.
	n := network.New("r")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{a, b}, and2)
	h := n.AddLUT("h", []network.NodeID{a, b}, or2)
	n.AddPO("o1", g)
	n.AddPO("o2", h)

	// Initial round: only the 00 vector → both nodes output 0, one class.
	inputs, nwords := PackVectors(n, [][]bool{{false, false}})
	vals := Simulate(n, inputs, nwords)
	c := NewClasses(n, vals)
	if c.ClassOf(g) != c.ClassOf(h) {
		t.Fatal("expected g,h together after 00 vector")
	}
	costBefore := c.Cost()

	// Refining with a separating vector must split them.
	inputs, nwords = PackVectors(n, [][]bool{{true, false}})
	vals = Simulate(n, inputs, nwords)
	if splits := c.Refine(vals); splits != 1 {
		t.Fatalf("splits = %d, want 1", splits)
	}
	if c.ClassOf(g) == c.ClassOf(h) {
		t.Fatal("refine did not separate")
	}
	if c.Cost() >= costBefore {
		t.Fatalf("cost did not decrease: %d -> %d", costBefore, c.Cost())
	}

	// Refinement is monotone: nodes once split never rejoin.
	inputs, nwords = PackVectors(n, [][]bool{{false, false}})
	vals = Simulate(n, inputs, nwords)
	c.Refine(vals)
	if c.ClassOf(g) == c.ClassOf(h) {
		t.Fatal("refine re-merged separated nodes")
	}
}

func TestNonSingletonOrder(t *testing.T) {
	// Three identical ANDs and two identical ORs: classes of size 3 and 2.
	n := network.New("ns")
	a := n.AddPI("a")
	b := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	var last network.NodeID
	for i := 0; i < 3; i++ {
		last = n.AddLUT("", []network.NodeID{a, b}, and2)
	}
	for i := 0; i < 2; i++ {
		last = n.AddLUT("", []network.NodeID{a, b}, or2)
	}
	n.AddPO("o", last)
	rng := rand.New(rand.NewSource(4))
	vals := Simulate(n, RandomInputs(n, 4, rng), 4)
	c := NewClasses(n, vals)
	ns := c.NonSingleton()
	if len(ns) != 2 {
		t.Fatalf("non-singleton classes = %d, want 2", len(ns))
	}
	if len(c.Members(ns[0])) < len(c.Members(ns[1])) {
		t.Fatal("classes not ordered largest-first")
	}
	if c.Cost() != 3 {
		t.Fatalf("cost = %d, want 3 ((3-1)+(2-1))", c.Cost())
	}
}

func TestRemove(t *testing.T) {
	n, ids := buildTestNet()
	rng := rand.New(rand.NewSource(5))
	vals := Simulate(n, RandomInputs(n, 4, rng), 4)
	c := NewClasses(n, vals)
	before := c.Cost()
	c.Remove(ids["h"])
	if c.ClassOf(ids["h"]) != -1 {
		t.Fatal("node still classified after Remove")
	}
	if c.Cost() != before-1 {
		t.Fatalf("cost after remove = %d, want %d", c.Cost(), before-1)
	}
	// Removing again is a no-op.
	c.Remove(ids["h"])
}

func TestPOValues(t *testing.T) {
	n, ids := buildTestNet()
	inputs, nwords := PackVectors(n, [][]bool{{true, true}})
	vals := Simulate(n, inputs, nwords)
	pos := PO(n, vals)
	if len(pos) != 3 {
		t.Fatalf("PO count = %d", len(pos))
	}
	if pos[0][0]&1 == 0 || pos[2][0]&1 == 0 {
		t.Fatal("PO values wrong")
	}
	_ = ids
}

func TestSignature(t *testing.T) {
	a := Words{1, 2, 3}
	b := Words{1, 2, 4}
	if Signature(a) == Signature(b) {
		t.Fatal("signatures collide on near-identical words")
	}
	if Signature(a) != Signature(Words{1, 2, 3}) {
		t.Fatal("signature not deterministic")
	}
}

func TestRefineKeepsEquivalentPairTogether(t *testing.T) {
	// Regression: Refine once corrupted the class list by appending into
	// the slice it was iterating. Equivalent nodes must never separate,
	// over many refinement rounds with many splits happening around them.
	n := network.New("alias")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	// The equivalent pair.
	e1 := n.AddLUT("", []network.NodeID{a, b}, and2)
	e2 := n.AddLUT("", []network.NodeID{b, a}, and2)
	// Lots of distinct functions that all look equal on the 000 vector.
	var others []network.NodeID
	fns := []tt.Table{
		tt.Var(3, 0), tt.Var(3, 1), tt.Var(3, 2),
		tt.Var(3, 0).And(tt.Var(3, 1)), tt.Var(3, 0).Or(tt.Var(3, 1)).And(tt.Var(3, 2)),
		tt.Var(3, 0).Xor(tt.Var(3, 1)), tt.Var(3, 1).And(tt.Var(3, 2)),
	}
	for _, fn := range fns {
		others = append(others, n.AddLUT("", []network.NodeID{a, b, c}, fn))
	}
	n.AddPO("o", others[len(others)-1])
	n.AddPO("p", e1)
	n.AddPO("q", e2)

	inputs, nwords := PackVectors(n, [][]bool{{false, false, false}})
	cls := NewClasses(n, Simulate(n, inputs, nwords))
	if cls.ClassOf(e1) != cls.ClassOf(e2) {
		t.Fatal("pair not together initially")
	}
	vectors := [][]bool{
		{true, false, false}, {false, true, false}, {false, false, true},
		{true, true, false}, {true, false, true}, {false, true, true},
		{true, true, true},
	}
	for _, vec := range vectors {
		in, nw := PackVectors(n, [][]bool{vec})
		cls.Refine(Simulate(n, in, nw))
		if cls.ClassOf(e1) != cls.ClassOf(e2) {
			t.Fatalf("equivalent pair separated after vector %v", vec)
		}
		if cls.ClassOf(e1) < 0 {
			t.Fatal("pair lost its class")
		}
	}
	if cls.Cost() < 1 {
		t.Fatalf("cost %d erased the equivalent pair", cls.Cost())
	}
}

// exactTestNet builds an 8-input network (four words per node when
// enumerated) with twins g and h, and a pair p, q that differ only when
// x6 and x7 are both 1, i.e. only in the last exhaustive word.
func exactTestNet() (*network.Network, map[string]network.NodeID) {
	n := network.New("exact")
	var x [8]network.NodeID
	for i := range x {
		x[i] = n.AddPI("")
	}
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	g := n.AddLUT("g", []network.NodeID{x[0], x[7]}, and2)
	h := n.AddLUT("h", []network.NodeID{x[7], x[0]}, and2)
	p := n.AddLUT("p", []network.NodeID{x[0], x[1]}, and2)
	// q = x0 & x1 & !(x6 & x7)
	qf := tt.Var(4, 0).And(tt.Var(4, 1)).And(tt.Var(4, 2).And(tt.Var(4, 3)).Not())
	q := n.AddLUT("q", []network.NodeID{x[0], x[1], x[6], x[7]}, qf)
	for _, id := range []network.NodeID{g, h, p, q} {
		n.AddPO("", id)
	}
	return n, map[string]network.NodeID{"g": g, "h": h, "p": p, "q": q}
}

// TestExactClasses checks that only the exhaustive constructor makes an
// exact partition, that its classes are exactly the nodes' functions (the
// reference evaluator's truth tables), and that Clone, Refine, RefineN,
// Remove and Settle keep the flag without splitting a class.
func TestExactClasses(t *testing.T) {
	n, ids := exactTestNet()
	rng := rand.New(rand.NewSource(7))
	if c := NewClasses(n, Simulate(n, RandomInputs(n, 4, rng), 4)); c.Exact() {
		t.Fatal("NewClasses made an exact partition")
	}
	inputs, nwords := ExhaustiveInputs(n)
	if nwords != 4 {
		t.Fatalf("8 inputs enumerate in %d words, want 4", nwords)
	}
	c := ExactClasses(n, NewSimulator(n))
	if !c.Exact() {
		t.Fatal("ExactClasses did not mark the partition exact")
	}
	ref := Reference(n, inputs, nwords)
	for a := 0; a < n.NumNodes(); a++ {
		for b := 0; b < n.NumNodes(); b++ {
			ca, cb := c.ClassOf(network.NodeID(a)), c.ClassOf(network.NodeID(b))
			if ca < 0 || cb < 0 {
				continue
			}
			if same := wordsEqual(ref[a], ref[b]); same != (ca == cb) {
				t.Fatalf("nodes %d and %d: equal tables %v, same class %v", a, b, same, ca == cb)
			}
		}
	}
	if c.ClassOf(ids["g"]) != c.ClassOf(ids["h"]) || c.ClassOf(ids["p"]) == c.ClassOf(ids["q"]) {
		t.Fatal("twins split or the last-word pair merged")
	}

	cost := c.Cost()
	cp := c.Clone()
	vals := Simulate(n, RandomInputs(n, 2, rng), 2)
	if splits := cp.Refine(vals) + cp.RefineN(vals, 70); splits != 0 || !cp.Exact() {
		t.Fatalf("refining an exact partition split %d classes, exact %v", splits, cp.Exact())
	}
	cp.Remove(ids["h"])
	if !cp.Exact() || cp.Cost() != cost-1 || !c.Exact() || c.Cost() != cost {
		t.Fatalf("after Remove on a clone: exact %v cost %d, original exact %v cost %d (was %d)",
			cp.Exact(), cp.Cost(), c.Exact(), c.Cost(), cost)
	}

	// Settle empties a class down to its representative in one call, as
	// Remove would member by member, and leaves earlier snapshots alone.
	ci := c.ClassOf(ids["g"])
	before := c.Members(ci)
	dropped := c.Settle(ci)
	if len(dropped) != 1 || dropped[0] != ids["h"] || c.ClassOf(ids["h"]) != -1 || c.Cost() != cost-1 || !c.Exact() {
		t.Fatalf("Settle dropped %v; h in class %d, cost %d, exact %v", dropped, c.ClassOf(ids["h"]), c.Cost(), c.Exact())
	}
	if len(before) != 2 || before[1] != ids["h"] || len(c.Members(ci)) != 1 || c.Settle(ci) != nil {
		t.Fatalf("after Settle: snapshot %v, members %v", before, c.Members(ci))
	}
	for _, k := range c.NonSingleton() {
		if k == ci {
			t.Fatal("a settled class is still listed as non-singleton")
		}
	}
}
