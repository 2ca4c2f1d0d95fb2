package sweep

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"simgen/internal/core"
	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/tt"
)

// buildRedundant builds a network with three provably equivalent nodes
// (g1 = a&b, g2 = b&a, g3 = !(!a | !b)) and one impostor that matches on
// most vectors (h = a&b | (a&!b&c&d&e) — differs only on one minterm slice).
func buildRedundant() (*network.Network, []network.NodeID, network.NodeID) {
	n := network.New("red")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	d := n.AddPI("d")
	e := n.AddPI("e")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	inv := tt.Var(1, 0).Not()
	g1 := n.AddLUT("g1", []network.NodeID{a, b}, and2)
	g2 := n.AddLUT("g2", []network.NodeID{b, a}, and2)
	na := n.AddLUT("na", []network.NodeID{a}, inv)
	nb := n.AddLUT("nb", []network.NodeID{b}, inv)
	o := n.AddLUT("o", []network.NodeID{na, nb}, or2)
	g3 := n.AddLUT("g3", []network.NodeID{o}, inv)
	// impostor: a&b OR (a & !b & c & d & e)
	f5 := tt.Var(5, 0).And(tt.Var(5, 1)).Or(
		tt.Var(5, 0).AndNot(tt.Var(5, 1)).And(tt.Var(5, 2)).And(tt.Var(5, 3)).And(tt.Var(5, 4)))
	h := n.AddLUT("h", []network.NodeID{a, b, c, d, e}, f5)
	n.AddPO("p1", g1)
	n.AddPO("p2", g2)
	n.AddPO("p3", g3)
	n.AddPO("p4", h)
	return n, []network.NodeID{g1, g2, g3}, h
}

func TestSweepProvesAndDisproves(t *testing.T) {
	net, equiv, impostor := buildRedundant()
	runner := core.NewRunner(net, 1, 5)
	sw := New(net, runner.Classes, Options{})
	res := sw.Run()
	if res.SATCalls == 0 {
		t.Fatal("no SAT calls performed")
	}
	// All three equivalent nodes must end with the same representative.
	r0 := sw.Rep(equiv[0])
	for _, id := range equiv[1:] {
		if sw.Rep(id) != r0 {
			t.Fatalf("equivalent node %d not merged (rep %d vs %d)", id, sw.Rep(id), r0)
		}
	}
	// The impostor must not be merged with them.
	if sw.Rep(impostor) == r0 {
		t.Fatal("impostor merged with genuine equivalents")
	}
	if res.Proved < 2 {
		t.Fatalf("expected at least 2 proofs, got %d", res.Proved)
	}
	// After sweeping, every remaining class is fully resolved.
	if res.FinalCost != runner.Classes.Cost() {
		t.Fatal("final cost mismatch")
	}
}

func TestSweepNeverMergesInequivalentNodes(t *testing.T) {
	// Property check against exhaustive simulation on random networks.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		net := randomNet(rng, 5, 12+rng.Intn(15))
		runner := core.NewRunner(net, 1, int64(trial))
		sw := New(net, runner.Classes, Options{})
		sw.Run()

		// Exhaustive truth vectors per node.
		npis := net.NumPIs()
		sig := make([]uint64, net.NumNodes())
		for m := 0; m < 1<<npis; m++ {
			assign := make([]bool, npis)
			for i := range assign {
				assign[i] = m&(1<<i) != 0
			}
			out := sim.SimulateVector(net, assign)
			for id := range sig {
				if out[id] {
					sig[id] |= 1 << uint(m)
				}
			}
		}
		for id := 0; id < net.NumNodes(); id++ {
			nid := network.NodeID(id)
			rep := sw.Rep(nid)
			if rep != nid && sig[rep] != sig[nid] {
				t.Fatalf("trial %d: merged inequivalent nodes %d and %d", trial, nid, rep)
			}
		}
	}
}

func randomNet(rng *rand.Rand, npis, nluts int) *network.Network {
	n := network.New("rand")
	var ids []network.NodeID
	for i := 0; i < npis; i++ {
		ids = append(ids, n.AddPI(""))
	}
	for i := 0; i < nluts; i++ {
		k := 2 + rng.Intn(2)
		fanins := map[network.NodeID]bool{}
		for len(fanins) < k {
			fanins[ids[rng.Intn(len(ids))]] = true
		}
		fi := make([]network.NodeID, 0, k)
		for f := range fanins {
			fi = append(fi, f)
		}
		fn := tt.New(k)
		for m := 0; m < 1<<k; m++ {
			fn.SetBit(m, rng.Intn(2) == 1)
		}
		ids = append(ids, n.AddLUT("", fi, fn))
	}
	n.AddPO("o", ids[len(ids)-1])
	return n
}

func TestSweepBudget(t *testing.T) {
	net, _, _ := buildRedundant()
	runner := core.NewRunner(net, 1, 5)
	sw := New(net, runner.Classes, Options{MaxPairs: 1})
	res := sw.Run()
	if res.SATCalls > 1 {
		t.Fatalf("MaxPairs ignored: %d calls", res.SATCalls)
	}
}

func TestCombineChecksInterfaces(t *testing.T) {
	a := network.New("a")
	a.AddPI("x")
	b := network.New("b")
	b.AddPI("x")
	b.AddPI("y")
	if _, _, err := Combine(a, b); err == nil {
		t.Fatal("PI mismatch accepted")
	}
	b2 := network.New("b2")
	p := b2.AddPI("x")
	b2.AddPO("o", p)
	if _, _, err := Combine(a, b2); err == nil {
		t.Fatal("PO mismatch accepted")
	}
}

// buildAdders returns two structurally different 8-bit adders: a ripple
// carry chain and a carry-select-style implementation.
func buildAdders(t *testing.T) (*network.Network, *network.Network) {
	t.Helper()
	ripple := network.New("ripple")
	buildRippleAdder(ripple, 8)
	sel := network.New("select")
	buildSelectAdder(sel, 8)
	return ripple, sel
}

func buildRippleAdder(n *network.Network, w int) {
	var as, bs []network.NodeID
	for i := 0; i < w; i++ {
		as = append(as, n.AddPI(""))
	}
	for i := 0; i < w; i++ {
		bs = append(bs, n.AddPI(""))
	}
	xor2 := tt.Var(2, 0).Xor(tt.Var(2, 1))
	xor3 := tt.Var(3, 0).Xor(tt.Var(3, 1)).Xor(tt.Var(3, 2))
	maj3 := tt.Var(3, 0).And(tt.Var(3, 1)).Or(tt.Var(3, 0).And(tt.Var(3, 2))).Or(tt.Var(3, 1).And(tt.Var(3, 2)))
	var carry network.NodeID = network.NoNode
	for i := 0; i < w; i++ {
		var s network.NodeID
		if carry == network.NoNode {
			s = n.AddLUT("", []network.NodeID{as[i], bs[i]}, xor2)
			carry = n.AddLUT("", []network.NodeID{as[i], bs[i]}, tt.Var(2, 0).And(tt.Var(2, 1)))
		} else {
			s = n.AddLUT("", []network.NodeID{as[i], bs[i], carry}, xor3)
			carry = n.AddLUT("", []network.NodeID{as[i], bs[i], carry}, maj3)
		}
		n.AddPO("", s)
	}
	n.AddPO("cout", carry)
}

// buildSelectAdder computes the same function through 4-input LUT slabs:
// sum bits computed from generate/propagate prefix logic.
func buildSelectAdder(n *network.Network, w int) {
	var as, bs []network.NodeID
	for i := 0; i < w; i++ {
		as = append(as, n.AddPI(""))
	}
	for i := 0; i < w; i++ {
		bs = append(bs, n.AddPI(""))
	}
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	xor2 := tt.Var(2, 0).Xor(tt.Var(2, 1))
	// generate/propagate per bit.
	var gen, prop []network.NodeID
	for i := 0; i < w; i++ {
		gen = append(gen, n.AddLUT("", []network.NodeID{as[i], bs[i]}, and2))
		prop = append(prop, n.AddLUT("", []network.NodeID{as[i], bs[i]}, xor2))
	}
	// carry[i] = gen[i-1] | prop[i-1] & carry[i-1], carry[0] = 0
	var carries []network.NodeID
	var carry network.NodeID = network.NoNode
	for i := 0; i < w; i++ {
		carries = append(carries, carry)
		if carry == network.NoNode {
			carry = gen[i]
		} else {
			pAndC := n.AddLUT("", []network.NodeID{prop[i], carry}, and2)
			carry = n.AddLUT("", []network.NodeID{gen[i], pAndC}, or2)
		}
	}
	for i := 0; i < w; i++ {
		if carries[i] == network.NoNode {
			n.AddPO("", prop[i])
		} else {
			s := n.AddLUT("", []network.NodeID{prop[i], carries[i]}, xor2)
			n.AddPO("", s)
		}
	}
	n.AddPO("cout", carry)
}

func TestCECEquivalentAdders(t *testing.T) {
	a, b := buildAdders(t)
	res, err := CEC(a, b, CECOptions{Seed: 1, GuidedIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("adders reported inequivalent, cex=%v PO=%s", res.Counterexample, res.FailedPO)
	}
	if res.Sweep.SATCalls == 0 && res.POCalls == 0 {
		t.Fatal("no verification work performed")
	}
}

func TestCECDetectsMutation(t *testing.T) {
	a, b := buildAdders(t)
	// Mutate one LUT of b: flip one truth table bit.
	for id := 0; id < b.NumNodes(); id++ {
		nd := b.Node(network.NodeID(id))
		if nd.Kind == network.KindLUT && len(nd.Fanins) == 2 {
			fn := nd.Func.Clone()
			fn.SetBit(2, !fn.Bit(2))
			nd.Func = fn
			b.Invalidate()
			break
		}
	}
	res, err := CEC(a, b, CECOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("mutation not detected")
	}
	ok, po := VerifyCounterexample(a, b, res.Counterexample)
	if !ok {
		t.Fatalf("counterexample does not separate the circuits (failed PO claim: %s)", res.FailedPO)
	}
	_ = po
}

func TestCECWithGuidedSimulationFindsSameVerdict(t *testing.T) {
	a, b := buildAdders(t)
	res1, err := CEC(a, b, CECOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := CEC(a, b, CECOptions{Seed: 3, GuidedIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Equivalent != res2.Equivalent {
		t.Fatal("guided simulation changed the verdict")
	}
}

// TestCECMethodOption: every guided-source method must be selectable per
// check (job-scoped plumbing for cmd/sweep -method and sweepd CEC jobs),
// all must agree on the verdict, and an unknown method is an error.
func TestCECMethodOption(t *testing.T) {
	a, b := buildAdders(t)
	for _, method := range []string{"", "simgen", "revs", "none"} {
		res, err := CEC(a, b, CECOptions{Seed: 4, GuidedIterations: 5, Method: method})
		if err != nil {
			t.Fatalf("method %q: %v", method, err)
		}
		if !res.Equivalent {
			t.Fatalf("method %q: adders reported inequivalent", method)
		}
	}
	if _, err := CEC(a, b, CECOptions{Seed: 4, GuidedIterations: 5, Method: "bogus"}); err == nil {
		t.Fatal("unknown method should be rejected")
	}
}

// TestCheck checks the flow's one range rule: every negative count,
// budget and ladder limit, an unknown method and an unknown engine kind
// are rejected, by Check and by CECContext through Refine, while the
// settings whose negative or small values carry a meaning pass. Engine
// names round-trip through String and ParseEngine.
func TestCheck(t *testing.T) {
	for k := range engineNames {
		if got, err := ParseEngine(EngineKind(k).String()); err != nil || got != EngineKind(k) {
			t.Errorf("ParseEngine(%q) = %v, %v", EngineKind(k), got, err)
		}
	}
	if err := DefaultCECOptions().Check(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for name, set := range map[string]func(*CECOptions){
		"iterations":         func(o *CECOptions) { o.GuidedIterations = -1 },
		"random rounds":      func(o *CECOptions) { o.RandomRounds = -1 },
		"workers":            func(o *CECOptions) { o.Workers = -3 },
		"conflict budget":    func(o *CECOptions) { o.Sweep.ConflictBudget = -5 },
		"propagation budget": func(o *CECOptions) { o.Sweep.PropagationBudget = -1 },
		"max pairs":          func(o *CECOptions) { o.Sweep.MaxPairs = -1 },
		"escalation rungs":   func(o *CECOptions) { o.Sweep.MaxEscalations = -1 },
		"BDD node limit":     func(o *CECOptions) { o.Sweep.BDDNodeLimit = -1 },
		"engine kind":        func(o *CECOptions) { o.Sweep.Engine = EngineKind(len(engineNames)) },
		"method":             func(o *CECOptions) { o.Method = "bogus" },
	} {
		o := DefaultCECOptions()
		set(&o)
		if err := o.Check(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Check() = %v, want an error naming it", name, err)
		}
	}
	o := DefaultCECOptions()
	o.Sweep.EscalationFactor = -3
	if err := o.Check(); err != nil {
		t.Errorf("EscalationFactor keeps its meaning: %v", err)
	}
	a, b := buildAdders(t)
	if _, err := CECContext(context.Background(), a, b, CECOptions{Seed: 1, RandomRounds: -1}); err == nil {
		t.Error("CECContext ran with RandomRounds -1")
	}
}

func TestRepPathCompression(t *testing.T) {
	net, _, _ := buildRedundant()
	runner := core.NewRunner(net, 2, 7)
	sw := New(net, runner.Classes, Options{})
	sw.Run()
	for id := 0; id < net.NumNodes(); id++ {
		rep := sw.Rep(network.NodeID(id))
		// A representative must be its own representative.
		if sw.Rep(rep) != rep {
			t.Fatal("representative chain not consistent")
		}
	}
}
