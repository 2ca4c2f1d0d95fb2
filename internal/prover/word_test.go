package prover

import (
	"context"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/sim"
	"simgen/internal/tt"
	"simgen/internal/word"
)

// twinAdder is a two-implementation ripple-carry adder over shared indexed
// operand words — the canonical circuit the word stage exists for. s1/s2
// are the pairwise-equivalent sum bits of the fused and decomposed
// implementations.
type twinAdder struct {
	net    *network.Network
	s1, s2 []network.NodeID
}

func newTwinAdder(w int) twinAdder {
	net := network.New("twinadd")
	xor2 := tt.Var(2, 0).Xor(tt.Var(2, 1))
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	or2 := tt.Var(2, 0).Or(tt.Var(2, 1))
	xor3 := tt.Var(3, 0).Xor(tt.Var(3, 1)).Xor(tt.Var(3, 2))
	maj3 := tt.Var(3, 0).And(tt.Var(3, 1)).
		Or(tt.Var(3, 0).And(tt.Var(3, 2))).
		Or(tt.Var(3, 1).And(tt.Var(3, 2)))

	a := make([]network.NodeID, w)
	b := make([]network.NodeID, w)
	for i := 0; i < w; i++ {
		a[i] = net.AddPI("a[" + string(rune('0'+i)) + "]")
	}
	for i := 0; i < w; i++ {
		b[i] = net.AddPI("b[" + string(rune('0'+i)) + "]")
	}
	cin := net.AddPI("cin")

	ta := twinAdder{net: net}
	c1 := cin
	for i := 0; i < w; i++ {
		fi := []network.NodeID{a[i], b[i], c1}
		s := net.AddLUT("", fi, xor3)
		ta.s1 = append(ta.s1, s)
		net.AddPO("s1_"+string(rune('0'+i)), s)
		c1 = net.AddLUT("", fi, maj3)
	}
	net.AddPO("cout1", c1)
	c2 := cin
	for i := 0; i < w; i++ {
		p := net.AddLUT("", []network.NodeID{a[i], b[i]}, xor2)
		g := net.AddLUT("", []network.NodeID{a[i], b[i]}, and2)
		s := net.AddLUT("", []network.NodeID{p, c2}, xor2)
		ta.s2 = append(ta.s2, s)
		net.AddPO("s2_"+string(rune('0'+i)), s)
		t := net.AddLUT("", []network.NodeID{p, c2}, and2)
		c2 = net.AddLUT("", []network.NodeID{g, t}, or2)
	}
	net.AddPO("cout2", c2)
	return ta
}

func newTwinAdderPlan(t *testing.T, w int) (twinAdder, *WordPlan) {
	t.Helper()
	ta := newTwinAdder(w)
	st := word.Detect(ta.net)
	if c, _ := st.Counts(); c == 0 {
		t.Fatal("word detection found no candidates on the twin adder")
	}
	return ta, NewWordPlan(ta.net, st)
}

// TestWordPlanSignaturesExact checks the plan's claim that a signature lane
// is an exact full-input evaluation: decoding any lane into a PI vector and
// simulating it must reproduce every node's signature bit. This is what
// makes a signature mismatch a sound Differ verdict.
func TestWordPlanSignaturesExact(t *testing.T) {
	ta, plan := newTwinAdderPlan(t, 4)
	for _, lane := range []int{0, 77, 255} {
		cex := make([]bool, ta.net.NumPIs())
		for i, pi := range ta.net.PIs() {
			cex[i] = (plan.Sig(pi)[lane>>6]>>uint(lane&63))&1 == 1
		}
		vals := sim.SimulateVector(ta.net, cex)
		for id := 0; id < ta.net.NumNodes(); id++ {
			nid := network.NodeID(id)
			got := (plan.Sig(nid)[lane>>6]>>uint(lane&63))&1 == 1
			if got != vals[nid] {
				t.Fatalf("lane %d node %d: signature bit %v, simulation %v", lane, nid, got, vals[nid])
			}
		}
	}
}

// TestWordEngineTwinAdder cross-checks a portfolio with the word stage
// against exhaustive reference simulation on the twin adder:
// cross-implementation sum pairs prove Equal, mismatched pairs refute with
// a valid counterexample, and the first wide obligation proves and learns
// frontier anchors below it.
func TestWordEngineTwinAdder(t *testing.T) {
	ta, plan := newTwinAdderPlan(t, 4)
	ctx := context.Background()
	w := NewPortfolio(ta.net, Policy{}, nil)
	w.EnableWord(plan)

	top := len(ta.s1) - 1
	r := w.Prove(ctx, ta.s1[top], ta.s2[top], Budget{})
	if r.Verdict != Equal {
		t.Fatalf("top sum pair: verdict %v, want equal", r.Verdict)
	}
	if r.Stats.WordChecks != 1 || r.Stats.WordFrontier == 0 {
		t.Fatalf("top sum pair: wordchecks=%d frontier=%d, want one check and learned anchors",
			r.Stats.WordChecks, r.Stats.WordFrontier)
	}
	for i := range ta.s1 {
		r := w.Prove(ctx, ta.s1[i], ta.s2[i], Budget{})
		if r.Verdict != Equal {
			t.Fatalf("sum pair %d: verdict %v, want equal", i, r.Verdict)
		}
	}
	r = w.Prove(ctx, ta.s1[0], ta.s2[1], Budget{})
	if r.Verdict != Differ {
		t.Fatalf("mismatched slices: verdict %v, want differ", r.Verdict)
	}
	verifyCex(t, ta.net, ta.s1[0], ta.s2[1], r.Cex)
	if !refEqual(t, ta.net, ta.s1[0], ta.s2[0]) || refEqual(t, ta.net, ta.s1[0], ta.s2[1]) {
		t.Fatal("reference oracle disagrees with the intended twin structure")
	}
}

// TestPortfolioFixedStageOrder pins the portfolio's one stage order on the
// twin adder: a pair within SimPIs is settled by simulation alone, and a
// wider in-word pair skips simulation and meets the word stage before any
// SAT call.
func TestPortfolioFixedStageOrder(t *testing.T) {
	ta, plan := newTwinAdderPlan(t, 4)
	for _, c := range []struct {
		bit  int
		want *regexp.Regexp // engines of the prove_start events, in order
	}{
		{0, regexp.MustCompile(`^sim$`)},
		{3, regexp.MustCompile(`^word( sat)+$`)},
	} {
		p := NewPortfolio(ta.net, Policy{SimPIs: 4}, nil)
		p.EnableWord(plan)
		rec := &obs.Recorder{}
		p.SetTracer(rec)
		if r := p.Prove(context.Background(), ta.s1[c.bit], ta.s2[c.bit], Budget{}); r.Verdict != Equal {
			t.Fatalf("sum bit %d: verdict %v, want equal", c.bit, r.Verdict)
		}
		var seq []string
		for _, ev := range rec.Filter(obs.KindProveStart) {
			seq = append(seq, ev.Engine)
		}
		if got := strings.Join(seq, " "); !c.want.MatchString(got) {
			t.Errorf("sum bit %d: engines started %q, want %s", c.bit, got, c.want)
		}
	}
}

// TestWordDeclinesOutsideWords pins the decline contract: on a network with
// no detectable word structure the stage returns the zero Result — Unknown,
// no stats, no events — so the portfolio's ladder is byte-identical to a
// word-less run.
func TestWordDeclinesOutsideWords(t *testing.T) {
	net := randomNet(rand.New(rand.NewSource(21)), 5, 15)
	st := word.Detect(net)
	if c, _ := st.Counts(); c != 0 {
		t.Fatalf("unexpected word candidates on anonymous-PI random logic: %d", c)
	}
	w := NewWord(net, NewWordPlan(net, st), NewSAT(net))
	a := network.NodeID(net.NumNodes() - 2)
	r := w.Prepare(context.Background(), a, a, Budget{})
	if r.Verdict != Unknown || r.Stats != (Stats{}) {
		t.Fatalf("declined pair produced verdict %v stats %+v, want zero result", r.Verdict, r.Stats)
	}
}

// TestWordFaultAssumeEqual checks the injected-unsoundness hook the fuzzing
// oracle relies on: the stage must report Equal without any SAT work, and
// only for pairs it would otherwise engage with.
func TestWordFaultAssumeEqual(t *testing.T) {
	ta, plan := newTwinAdderPlan(t, 3)
	w := NewWord(ta.net, plan, NewSAT(ta.net))
	w.Hook = func(a, b network.NodeID) Fault { return FaultWordAssumeEqual }
	// s1[0] and s1[1] are genuinely different — the fault makes the stage
	// lie, which is exactly what the differential oracle must catch.
	r := w.Prepare(context.Background(), ta.s1[0], ta.s1[1], Budget{})
	if r.Verdict != Equal || r.Stats.SATCalls != 0 || r.Stats.WordChecks != 1 {
		t.Fatalf("faulted pair: verdict %v stats %+v, want unproven equal", r.Verdict, r.Stats)
	}
}
