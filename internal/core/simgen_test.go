package core

import (
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/tt"
)

func and2() tt.Table  { return tt.Var(2, 0).And(tt.Var(2, 1)) }
func or2() tt.Table   { return tt.Var(2, 0).Or(tt.Var(2, 1)) }
func nand2() tt.Table { return and2().Not() }
func inv1() tt.Table  { return tt.Var(1, 0).Not() }

// buildFigure1 reproduces the circuit of Fig. 1 of the paper:
//
//	A, B, C : PIs
//	x = A AND !B   (the figure's x with an inverted B input, folded in)
//	w = NOT B      (the explicit inverter)
//	y = NAND(w, C)
//	z = x AND y
//	D = z (PO)
//
// Reverse simulation can fail on it by choosing w=0, C=0 for y; SimGen's
// forward implication of w = NOT B avoids the conflict.
func buildFigure1() (*network.Network, map[string]network.NodeID) {
	n := network.New("fig1")
	a := n.AddPI("A")
	b := n.AddPI("B")
	c := n.AddPI("C")
	x := n.AddLUT("x", []network.NodeID{a, b}, tt.Var(2, 0).AndNot(tt.Var(2, 1)))
	w := n.AddLUT("w", []network.NodeID{b}, inv1())
	y := n.AddLUT("y", []network.NodeID{w, c}, nand2())
	z := n.AddLUT("z", []network.NodeID{x, y}, and2())
	n.AddPO("D", z)
	return n, map[string]network.NodeID{"a": a, "b": b, "c": c, "x": x, "w": w, "y": y, "z": z}
}

func TestFigure1SimGenSucceeds(t *testing.T) {
	// SimGen with advanced implication must find a vector setting D=1
	// without conflicts: z=1 forces x=1,y=1; x=1 forces A=1,B=0; the
	// forward implication w=1 then forces C=0 through y's rows.
	net, ids := buildFigure1()
	g := NewGenerator(net, StrategySimGen, 1)
	for trial := 0; trial < 20; trial++ {
		vec, honored, _ := g.VectorForTargets([]network.NodeID{ids["z"]}, []bool{true})
		if !honored[0] {
			t.Fatalf("trial %d: SimGen failed to honor z=1", trial)
		}
		out := sim.SimulateVector(net, vec)
		if !out[ids["z"]] {
			t.Fatalf("trial %d: vector %v does not produce D=1", trial, vec)
		}
		if !vec[0] || vec[1] || vec[2] {
			t.Fatalf("trial %d: expected A=1,B=0,C=0, got %v", trial, vec)
		}
	}
}

func TestHonoredTargetsMatchSimulation(t *testing.T) {
	// The central soundness property of the generator: every honored
	// target evaluates to its OUTgold value when the returned vector is
	// simulated, for every strategy combination.
	strategies := []Strategy{StrategySIRD, StrategyAIRD, StrategyAIDC, StrategySimGen}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		net := randomLUTNetwork(rng, 4+rng.Intn(5), 10+rng.Intn(30))
		for _, st := range strategies {
			g := NewGenerator(net, st, int64(trial))
			// Target a random set of LUT nodes with random gold values.
			var targets []network.NodeID
			var gold []bool
			for id := 0; id < net.NumNodes(); id++ {
				nd := net.Node(network.NodeID(id))
				if nd.Kind == network.KindLUT && rng.Intn(3) == 0 {
					targets = append(targets, network.NodeID(id))
					gold = append(gold, rng.Intn(2) == 1)
				}
			}
			if len(targets) == 0 {
				continue
			}
			vec, honored, _ := g.VectorForTargets(targets, gold)
			out := sim.SimulateVector(net, vec)
			for i, h := range honored {
				if h && out[targets[i]] != gold[i] {
					t.Fatalf("trial %d %v: honored target %d simulates to %v, gold %v",
						trial, st, targets[i], out[targets[i]], gold[i])
				}
			}
		}
	}
}

// randomLUTNetwork builds a random network of 2-4 input LUTs.
func randomLUTNetwork(rng *rand.Rand, npis, nluts int) *network.Network {
	n := network.New("rand")
	var ids []network.NodeID
	for i := 0; i < npis; i++ {
		ids = append(ids, n.AddPI(""))
	}
	for i := 0; i < nluts; i++ {
		k := 2 + rng.Intn(3)
		fanins := map[network.NodeID]bool{}
		for len(fanins) < k {
			fanins[ids[rng.Intn(len(ids))]] = true
		}
		fi := make([]network.NodeID, 0, k)
		for f := range fanins {
			fi = append(fi, f)
		}
		// Avoid constant functions (they never admit both polarities).
		var fn tt.Table
		for {
			fn = tt.New(k)
			for m := 0; m < 1<<k; m++ {
				fn.SetBit(m, rng.Intn(2) == 1)
			}
			if !fn.IsConst0() && !fn.IsConst1() {
				break
			}
		}
		ids = append(ids, n.AddLUT("", fi, fn))
	}
	n.AddPO("o", ids[len(ids)-1])
	return n
}

func TestAdvancedImplicationFigure3(t *testing.T) {
	// Figure 3 of the paper: f1 with truth table rows
	//   A B C D | f1     (cover: -11-:1, 1-0-... we use the exact function)
	// We model the described situation: a node whose consistent rows all
	// produce output 1, so advanced implication can set the output while
	// simple implication cannot.
	//
	// f = (B AND C') OR (B AND D) over inputs (B, C, D): with B=1, D=1
	// both rows (B=1,C=0) and (B=1,D=1) remain, and f=1 in all of them.
	n := network.New("fig3")
	b := n.AddPI("B")
	c := n.AddPI("C")
	d := n.AddPI("D")
	f := tt.Var(3, 0).AndNot(tt.Var(3, 1)).Or(tt.Var(3, 0).And(tt.Var(3, 2)))
	o := n.AddLUT("o", []network.NodeID{b, c, d}, f)
	n.AddPO("O", o)

	// Simple implication: assign B=1, D=1; multiple rows remain, so the
	// output must stay unassigned.
	eSimple := newEngine(n)
	eSimple.assignAndWake(b, true)
	eSimple.assignAndWake(d, true)
	if !eSimple.propagate(ImplSimple) {
		t.Fatal("unexpected conflict")
	}
	if eSimple.vals.assigned(o) {
		t.Fatal("simple implication should not determine the output")
	}

	// Advanced implication: every consistent row evaluates to 1, so the
	// output is implied.
	eAdv := newEngine(n)
	eAdv.assignAndWake(b, true)
	eAdv.assignAndWake(d, true)
	if !eAdv.propagate(ImplAdvanced) {
		t.Fatal("unexpected conflict")
	}
	if v, ok := eAdv.vals.get(o); !ok || !v {
		t.Fatal("advanced implication should imply output 1")
	}
}

func TestImplicationBackward(t *testing.T) {
	// AND output forced to 1 implies both inputs to 1 (single row).
	n := network.New("bk")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddLUT("g", []network.NodeID{a, b}, and2())
	n.AddPO("o", g)
	e := newEngine(n)
	e.assignAndWake(g, true)
	if !e.propagate(ImplSimple) {
		t.Fatal("conflict")
	}
	if v, ok := e.vals.get(a); !ok || !v {
		t.Fatal("a not implied to 1")
	}
	if v, ok := e.vals.get(b); !ok || !v {
		t.Fatal("b not implied to 1")
	}
}

func TestImplicationForward(t *testing.T) {
	// Both AND inputs assigned 1 implies output 1; one input 0 implies
	// output 0 even under simple implication (single consistent row in
	// the off cover: the 0-input's row).
	n := network.New("fw")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddLUT("g", []network.NodeID{a, b}, and2())
	n.AddPO("o", g)

	e := newEngine(n)
	e.assignAndWake(a, true)
	e.assignAndWake(b, true)
	if !e.propagate(ImplSimple) {
		t.Fatal("conflict")
	}
	if v, ok := e.vals.get(g); !ok || !v {
		t.Fatal("forward implication to 1 failed")
	}

	e2 := newEngine(n)
	e2.assignAndWake(a, false)
	if !e2.propagate(ImplAdvanced) {
		t.Fatal("conflict")
	}
	if v, ok := e2.vals.get(g); !ok || v {
		t.Fatal("advanced forward implication to 0 failed")
	}
}

func TestConflictDetected(t *testing.T) {
	// Force AND=1 with an input already 0: no consistent row.
	n := network.New("cf")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddLUT("g", []network.NodeID{a, b}, and2())
	n.AddPO("o", g)
	e := newEngine(n)
	e.assignAndWake(a, false)
	e.assignAndWake(g, true)
	if e.propagate(ImplSimple) {
		t.Fatal("conflict not detected")
	}
}

func TestProcessTargetUndoesOnConflict(t *testing.T) {
	// Conflicting target must leave the assignment exactly as before.
	n := network.New("undo")
	a := n.AddPI("a")
	b := n.AddPI("b")
	g := n.AddLUT("g", []network.NodeID{a, b}, and2())
	h := n.AddLUT("h", []network.NodeID{g}, inv1())
	n.AddPO("o", h)
	gen := NewGenerator(n, StrategySimGen, 3)
	// First honor g=1 (forces a=1,b=1), then demand h=1 (forces g=0):
	// conflict, and the g=1 state must survive.
	vec, honored, ok := gen.VectorForTargets(
		[]network.NodeID{g, h}, []bool{true, true})
	// h is deeper, so it is processed first and wins; g then conflicts.
	if !honored[1] || honored[0] {
		t.Fatalf("expected h honored and g failed, got honored=%v", honored)
	}
	if ok {
		t.Fatal("single-polarity success must not count as a useful vector")
	}
	out := sim.SimulateVector(n, vec)
	if !out[h] {
		t.Fatal("honored target h not satisfied")
	}
	checkState(t, n, gen.eng)
}

// TestOutGoldPhase checks the paper's OUTgold policy: targets in node-ID
// order with alternating values, balanced between 0 and 1, and every value
// flipped under the other phase, which NextBatch uses on alternate passes.
func TestOutGoldPhase(t *testing.T) {
	members := []network.NodeID{9, 3, 7, 5}
	targets, gold := OutGold(members)
	if targets[0] != 3 || targets[1] != 5 || targets[2] != 7 || targets[3] != 9 {
		t.Fatalf("targets not sorted: %v", targets)
	}
	zeros, ones := 0, 0
	for _, v := range gold {
		if v {
			ones++
		} else {
			zeros++
		}
	}
	if zeros != 2 || ones != 2 {
		t.Fatalf("gold not balanced: %v", gold)
	}
	flipped, flippedGold := OutGoldPhase(members, true)
	for i := range gold {
		if flipped[i] != targets[i] || flippedGold[i] == gold[i] {
			t.Fatalf("phase true: targets %v gold %v, want %v with every value of %v flipped", flipped, flippedGold, targets, gold)
		}
	}
}

func TestDCDecisionPrefersDontCares(t *testing.T) {
	// OR gate with output 1 has rows 1- and -1 (1 DC each) plus none with
	// 2 DCs; against a 3-input function with a clear DC hierarchy the DC
	// strategy must statistically prefer high-DC rows.
	// f = x0 OR (x1 AND x2): rows for f=1 are {x0=1 (2 DCs), x1=x2=1 (1 DC)}.
	n := network.New("dc")
	x0 := n.AddPI("x0")
	x1 := n.AddPI("x1")
	x2 := n.AddPI("x2")
	f := tt.Var(3, 0).Or(tt.Var(3, 1).And(tt.Var(3, 2)))
	g := n.AddLUT("g", []network.NodeID{x0, x1, x2}, f)
	n.AddPO("o", g)

	countX0 := func(strategy DecisionStrategy) int {
		rng := rand.New(rand.NewSource(11))
		e := newEngine(n)
		depths := newMFFCDepths(n)
		hits := 0
		for i := 0; i < 400; i++ {
			e.reset()
			e.vals.set(g, true)
			idx, ok := e.chooseRow(g, strategy, depths, rng)
			if !ok {
				t.Fatal("chooseRow found no row")
			}
			e.applyRowIndex(g, idx)
			if v, ok := e.vals.get(x0); ok && v {
				hits++
			}
		}
		return hits
	}
	rdHits := countX0(DecRandom)
	dcHits := countX0(DecDC)
	// Random picks the 2-DC row with p=1/2 (~200/400); roulette-wheel DC
	// selection picks it with p proportional to priority 2000 vs 1000,
	// i.e. ~2/3 (~267/400). Require a clear statistical separation.
	if dcHits <= rdHits+30 {
		t.Fatalf("DC heuristic did not prefer the 2-DC row: rd=%d dc=%d", rdHits, dcHits)
	}
}

func TestMFFCRankComputation(t *testing.T) {
	// Row assigning a deep-MFFC input must outrank a row assigning a
	// shallow one (Eq. 3).
	n := network.New("rank")
	p := n.AddPI("p")
	q := n.AddPI("q")
	// deep: chain of 3 private nodes.
	d1 := n.AddLUT("d1", []network.NodeID{p}, inv1())
	d2 := n.AddLUT("d2", []network.NodeID{d1}, inv1())
	deep := n.AddLUT("deep", []network.NodeID{d2}, inv1())
	// shallow: PI-fed node shared with another output.
	shallow := n.AddLUT("shallow", []network.NodeID{q}, inv1())
	g := n.AddLUT("g", []network.NodeID{deep, shallow}, and2().Not())
	side := n.AddLUT("side", []network.NodeID{shallow}, inv1())
	n.AddPO("o", g)
	n.AddPO("s", side)

	e := newEngine(n)
	depths := newMFFCDepths(n)
	rowDeep := row{cube: tt.Cube{}.WithLiteral(0, false), out: true}
	rowShallow := row{cube: tt.Cube{}.WithLiteral(1, false), out: true}
	fanins := n.Node(g).Fanins
	if e.mffcRank(rowDeep, fanins, depths) <= e.mffcRank(rowShallow, fanins, depths) {
		t.Fatalf("deep rank %v should exceed shallow rank %v",
			e.mffcRank(rowDeep, fanins, depths), e.mffcRank(rowShallow, fanins, depths))
	}
}

func TestRouletteWheel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Heavily skewed priorities: index 1 should dominate.
	prios := []float64{1, 100, 1}
	counts := [3]int{}
	for i := 0; i < 1000; i++ {
		counts[rouletteWheel(prios, 100, rng)]++
	}
	if counts[1] < 800 {
		t.Fatalf("roulette wheel not proportional: %v", counts)
	}
	// All-zero priorities fall back to uniform.
	zeros := []float64{0, 0, 0, 0}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[rouletteWheel(zeros, 0, rng)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("uniform fallback broken: %v", seen)
	}
}

// piNetwork returns a network of n PIs.
func piNetwork(n int) *network.Network {
	net := network.New("pis")
	for range n {
		net.AddPI("")
	}
	return net
}

func TestAssignmentTrail(t *testing.T) {
	a := newAssignment(piNetwork(10))
	a.set(3, true)
	m := a.mark()
	a.set(4, false)
	a.set(5, true)
	if !a.assigned(4) || !a.assigned(5) {
		t.Fatal("assignments lost")
	}
	a.undoTo(m)
	if a.assigned(4) || a.assigned(5) {
		t.Fatal("undo failed")
	}
	if v, ok := a.get(3); !ok || !v {
		t.Fatal("undo removed earlier assignment")
	}
	a.reset()
	if a.assigned(3) {
		t.Fatal("reset failed")
	}
}

func TestAssignmentSetPanicsOnConflict(t *testing.T) {
	a := newAssignment(piNetwork(4))
	a.set(1, true)
	a.set(1, true) // same value: fine
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting set did not panic")
		}
	}()
	a.set(1, false)
}
