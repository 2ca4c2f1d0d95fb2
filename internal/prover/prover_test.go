package prover

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/sim"
	"simgen/internal/tt"
)

// randomNet builds a random LUT network for cross-checking engines.
func randomNet(rng *rand.Rand, npis, nluts int) *network.Network {
	n := network.New("rand")
	var nodes []network.NodeID
	for i := 0; i < npis; i++ {
		nodes = append(nodes, n.AddPI(""))
	}
	for i := 0; i < nluts; i++ {
		k := 2 + rng.Intn(2)
		fanins := map[network.NodeID]bool{}
		for len(fanins) < k {
			fanins[nodes[rng.Intn(len(nodes))]] = true
		}
		fi := make([]network.NodeID, 0, k)
		for f := range fanins {
			fi = append(fi, f)
		}
		fn := tt.New(k)
		for m := 0; m < 1<<k; m++ {
			fn.SetBit(m, rng.Intn(2) == 1)
		}
		nodes = append(nodes, n.AddLUT("", fi, fn))
	}
	n.AddPO("out", nodes[len(nodes)-1])
	return n
}

// refEqual decides pair equivalence by exhaustive reference simulation.
func refEqual(t *testing.T, net *network.Network, a, b network.NodeID) bool {
	t.Helper()
	inputs, nwords := sim.ExhaustiveInputs(net)
	vals := sim.Reference(net, inputs, nwords)
	for w := range vals[a] {
		if vals[a][w] != vals[b][w] {
			return false
		}
	}
	return true
}

// verifyCex checks that an engine's counterexample separates the pair.
func verifyCex(t *testing.T, net *network.Network, a, b network.NodeID, cex []bool) {
	t.Helper()
	if len(cex) != net.NumPIs() {
		t.Fatalf("counterexample has %d bits, want %d", len(cex), net.NumPIs())
	}
	vals := sim.SimulateVector(net, cex)
	if vals[a] == vals[b] {
		t.Fatalf("counterexample does not separate nodes %d and %d", a, b)
	}
}

// TestEnginesAgreeOnRandomPairs cross-checks every engine's verdict on
// random node pairs against exhaustive reference simulation.
func TestEnginesAgreeOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		net := randomNet(rng, 3+rng.Intn(6), 10+rng.Intn(20))
		engines := []Engine{
			NewSAT(net, nil),
			NewBDD(net, 0, nil),
			NewSim(net, 16, nil),
			NewPortfolio(net, Policy{SimPIs: 8, MaxEscalations: 2, BDDFallback: true}, nil, nil, nil),
		}
		for pi := 0; pi < 10; pi++ {
			a := network.NodeID(rng.Intn(net.NumNodes()))
			b := network.NodeID(rng.Intn(net.NumNodes()))
			want := Equal
			if !refEqual(t, net, a, b) {
				want = Differ
			}
			for _, eng := range engines {
				r := eng.Prove(ctx, a, b, Budget{})
				if r.Verdict != want {
					t.Fatalf("engine %T: pair (%d,%d) verdict %v, want %v",
						eng, a, b, r.Verdict, want)
				}
				if r.Verdict == Differ {
					verifyCex(t, net, a, b, r.Cex)
				}
			}
		}
	}
}

// TestSimDeclinesLargeSupport checks the cutoff: a pair whose combined
// support exceeds maxPIs must return Unknown without accounting a check.
func TestSimDeclinesLargeSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := randomNet(rng, 10, 30)
	var wide network.NodeID = -1
	for id := 0; id < net.NumNodes(); id++ {
		if len(net.ConePIs(network.NodeID(id))) > 4 {
			wide = network.NodeID(id)
			break
		}
	}
	if wide < 0 {
		t.Skip("no wide-support node in this net")
	}
	eng := NewSim(net, 4, nil)
	r := eng.Prove(context.Background(), wide, wide, Budget{})
	if r.Verdict != Unknown || r.Stats.SimChecks != 0 {
		t.Fatalf("Sim over cutoff: verdict %v simchecks %d, want unknown verdict and no check",
			r.Verdict, r.Stats.SimChecks)
	}
}

// TestPortfolioEscalatesThenFallsBack drives the SAT stage to persistent
// Unknown with an injected fault; the portfolio must climb every rung
// (re-consulting the hook) and settle on the BDD stage. Every stage's
// events must reach the tracer the portfolio was built with: the four SAT
// rungs' prove events, the three escalations, and the verdict of the BDD
// fallback, which is built lazily on first use.
func TestPortfolioEscalatesThenFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := randomNet(rng, 5, 12)
	consults := 0
	hook := func(a, b network.NodeID) Fault {
		consults++
		return FaultUnknown
	}
	rec := &obs.Recorder{}
	p := NewPortfolio(net, Policy{MaxEscalations: 3, BDDFallback: true}, rec, nil, hook)
	a := network.NodeID(net.NumNodes() - 1)
	r := p.Prove(context.Background(), a, a, Budget{})
	if r.Verdict != Equal {
		t.Fatalf("verdict %v, want equal via BDD fallback", r.Verdict)
	}
	if consults != 4 {
		t.Fatalf("fault hook consulted %d times, want once per rung (4)", consults)
	}
	if r.Stats.Escalations != 3 || r.Stats.BDDChecks != 1 || r.Stats.SATCalls != 4 {
		t.Fatalf("stats %+v, want 3 escalations, 4 SAT calls, 1 BDD check", r.Stats)
	}
	events := func(kind obs.Kind, engine string) []obs.Event {
		var out []obs.Event
		for _, ev := range rec.Filter(kind) {
			if ev.Engine == engine {
				out = append(out, ev)
			}
		}
		return out
	}
	if n := len(events(obs.KindProveStart, "sat")); n != 4 {
		t.Errorf("%d SAT prove_start events, want one per rung (4)", n)
	}
	if n := len(events(obs.KindProveVerdict, "sat")); n != 4 {
		t.Errorf("%d SAT prove_verdict events, want one per rung (4)", n)
	}
	if n := len(rec.Filter(obs.KindEscalation)); n != 3 {
		t.Errorf("%d escalation events, want 3", n)
	}
	if bdd := events(obs.KindProveVerdict, "bdd"); len(bdd) != 1 || Verdict(bdd[0].Verdict) != Equal {
		t.Errorf("BDD fallback prove_verdict events %+v, want one, equal", bdd)
	}
}

// TestPortfolioSimSkipsSAT checks that small-support pairs never reach the
// SAT stage when the sim engine is enabled.
func TestPortfolioSimSkipsSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := randomNet(rng, 4, 10)
	hook := func(a, b network.NodeID) Fault {
		t.Fatal("SAT stage consulted for a sim-provable pair")
		return FaultNone
	}
	p := NewPortfolio(net, Policy{SimPIs: 16}, nil, nil, hook)
	a := network.NodeID(net.NumNodes() - 1)
	r := p.Prove(context.Background(), a, a, Budget{})
	if r.Verdict != Equal || r.Stats.SimChecks != 1 {
		t.Fatalf("verdict %v simchecks %d, want sim-stage equal", r.Verdict, r.Stats.SimChecks)
	}
}

// TestPortfolioFixedStageOrder pins the portfolio's stage order on an XOR
// chain: a pair whose support fits the sim cutoff is settled by the sim
// stage alone, and a wider pair goes straight to SAT with no sim event.
func TestPortfolioFixedStageOrder(t *testing.T) {
	net := network.New("chain")
	var pis []network.NodeID
	for i := 0; i < 7; i++ {
		pis = append(pis, net.AddPI(""))
	}
	xor2 := tt.Var(2, 0).Xor(tt.Var(2, 1))
	chain := []network.NodeID{pis[0]}
	for _, pi := range pis[1:] {
		chain = append(chain, net.AddLUT("", []network.NodeID{chain[len(chain)-1], pi}, xor2))
	}
	net.AddPO("out", chain[len(chain)-1])
	for _, c := range []struct {
		node network.NodeID
		want string // engines of the prove_start events, in order
	}{
		{chain[3], "sim"}, // 4 support inputs
		{chain[6], "sat"}, // 7 support inputs
	} {
		rec := &obs.Recorder{}
		p := NewPortfolio(net, Policy{SimPIs: 4}, rec, nil, nil)
		if r := p.Prove(context.Background(), c.node, c.node, Budget{}); r.Verdict != Equal {
			t.Fatalf("node %d: verdict %v, want equal", c.node, r.Verdict)
		}
		var seq []string
		for _, ev := range rec.Filter(obs.KindProveStart) {
			seq = append(seq, ev.Engine)
		}
		if got := strings.Join(seq, " "); got != c.want {
			t.Errorf("node %d: engines started %q, want %q", c.node, got, c.want)
		}
	}
}

// TestSupportUnion checks the combined-support helper against per-node
// cones: a's inputs first, then the rest of b's, on one reused walker.
func TestSupportUnion(t *testing.T) {
	n := network.New("sup")
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	x := n.AddLUT("x", []network.NodeID{a, b}, and2)
	y := n.AddLUT("y", []network.NodeID{b, c}, and2)
	n.AddPO("px", x)
	n.AddPO("py", y)
	cone := network.NewCone(n)
	if got := Support(n, cone, x, y); !slices.Equal(got, []network.NodeID{a, b, c}) {
		t.Fatalf("combined support = %v, want [%d %d %d]", got, a, b, c)
	}
	if got := Support(n, cone, x, x); !slices.Equal(got, []network.NodeID{a, b}) {
		t.Fatalf("self support = %v, want [%d %d]", got, a, b)
	}
}
