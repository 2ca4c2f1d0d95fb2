package prover

import (
	"context"
	"testing"

	"simgen/internal/chaos"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/tt"
)

// scriptedInjector replays a fixed action sequence regardless of point.
type scriptedInjector struct {
	acts []chaos.Action
	n    int
}

func (s *scriptedInjector) At(p chaos.Point, a, b int32) chaos.Action {
	if s.n >= len(s.acts) {
		return chaos.ActNone
	}
	act := s.acts[s.n]
	s.n++
	return act
}

// chaosNet builds two structurally distinct but functionally equal AND
// nodes to prove.
func chaosNet(t *testing.T) (*network.Network, network.NodeID, network.NodeID) {
	t.Helper()
	n := network.New("chaos")
	pa := n.AddPI("a")
	pb := n.AddPI("b")
	and2 := tt.Var(2, 0).And(tt.Var(2, 1))
	x := n.AddLUT("x", []network.NodeID{pa, pb}, and2)
	y := n.AddLUT("y", []network.NodeID{pb, pa}, and2)
	n.AddPO("px", x)
	n.AddPO("py", y)
	return n, x, y
}

func TestWithChaosInjectsTransientFailures(t *testing.T) {
	net, a, b := chaosNet(t)
	var rec obs.Recorder
	eng := WithChaos(NewPortfolio(net, Policy{}, nil, nil, nil),
		&scriptedInjector{acts: []chaos.Action{chaos.ActFail, chaos.ActTimeout}}, &rec)

	for i := 0; i < 2; i++ {
		res := eng.Prove(context.Background(), a, b, Budget{})
		if res.Verdict != Unknown || !res.Transient {
			t.Fatalf("injected failure %d: got verdict %v transient %v, want transient Unknown",
				i, res.Verdict, res.Transient)
		}
	}
	perturbs := 0
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindPerturb {
			if ev.Point != "verdict" {
				t.Fatalf("perturb at point %q, want verdict", ev.Point)
			}
			perturbs++
		}
	}
	if perturbs != 2 {
		t.Fatalf("emitted %d perturb events, want 2", perturbs)
	}
}

func TestWithChaosPanics(t *testing.T) {
	net, a, b := chaosNet(t)
	eng := WithChaos(NewPortfolio(net, Policy{}, nil, nil, nil),
		&scriptedInjector{acts: []chaos.Action{chaos.ActPanic}}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("injected panic did not propagate")
		}
	}()
	eng.Prove(context.Background(), a, b, Budget{})
}

func TestWithChaosDelegatesCleanCalls(t *testing.T) {
	// Schedule-shaping actions must not change verdicts: the two AND nodes
	// share a function, so every call comes back Equal and non-transient.
	net, a, b := chaosNet(t)
	eng := WithChaos(NewPortfolio(net, Policy{}, nil, nil, nil),
		&scriptedInjector{acts: []chaos.Action{chaos.ActYield, chaos.ActDelay, chaos.ActNone}}, nil)
	for i := 0; i < 3; i++ {
		res := eng.Prove(context.Background(), a, b, Budget{})
		if res.Verdict != Equal {
			t.Fatalf("call %d: got %v, want Equal", i, res.Verdict)
		}
		if res.Transient {
			t.Fatalf("call %d: clean verdict marked transient", i)
		}
	}
}
