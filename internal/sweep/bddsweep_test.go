package sweep

import (
	"math/rand"
	"testing"

	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/sim"
)

func TestBDDSweepAgreesWithSAT(t *testing.T) {
	// On the redundant test network both engines must reach the same
	// verdicts: merge the genuine equivalences, keep the impostor apart.
	net, equiv, impostor := buildRedundant()
	runnerA := core.NewRunner(net, 1, 5)
	satSw := New(net, runnerA.Classes, Options{})
	satSw.Run()

	net2, equiv2, impostor2 := buildRedundant()
	runnerB := core.NewRunner(net2, 1, 5)
	bddSw := New(net2, runnerB.Classes, Options{Engine: EngineBDD})
	res := bddSw.Run()

	if res.BDDChecks == 0 {
		t.Fatal("BDD sweep did no work")
	}
	r0 := bddSw.Rep(equiv2[0])
	for _, id := range equiv2[1:] {
		if bddSw.Rep(id) != r0 {
			t.Fatalf("BDD sweep missed equivalence of node %d", id)
		}
	}
	if bddSw.Rep(impostor2) == r0 {
		t.Fatal("BDD sweep merged the impostor")
	}
	// Same final verdict structure as SAT.
	if (satSw.Rep(equiv[0]) == satSw.Rep(equiv[1])) != (bddSw.Rep(equiv2[0]) == bddSw.Rep(equiv2[1])) {
		t.Fatal("engines disagree")
	}
	_ = impostor
}

func TestBDDSweepOnBenchmark(t *testing.T) {
	b, _ := genbench.ByName("misex3c")
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner(net, 1, 42)
	costBefore := runner.Classes.Cost()
	sw := New(net, runner.Classes, Options{Engine: EngineBDD})
	res := sw.Run()
	if res.FinalCost > costBefore {
		t.Fatal("cost increased")
	}
	if res.Proved+res.Disproved == 0 {
		t.Fatal("no verdicts on a benchmark with candidate classes")
	}
	if res.BDDChecks != res.Scheduled || res.SATCalls != 0 {
		t.Fatalf("bddchecks=%d calls=%d for %d obligations, want one BDD check each",
			res.BDDChecks, res.SATCalls, res.Scheduled)
	}
}

func TestBDDSweepBlowUpIsGraceful(t *testing.T) {
	// A multiplier with a tiny node budget must blow up but terminate with
	// unresolved pairs rather than wrong verdicts.
	b, _ := genbench.ByName("square")
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner(net, 1, 42)
	sw := New(net, runner.Classes, Options{Engine: EngineBDD, BDDNodeLimit: 2000})
	res := sw.Run()
	if res.BDDBlowups == 0 {
		t.Skip("square did not blow a 2000-node budget (unexpectedly small classes)")
	}
	if res.Unresolved != res.BDDBlowups {
		t.Fatalf("%d blow-ups left %d pairs unresolved, want one each", res.BDDBlowups, res.Unresolved)
	}
	// Whatever was proved must be genuinely equivalent (spot check by
	// simulation over random vectors).
	vals := sim.Simulate(net, sim.RandomInputs(net, 4, newRng(7)), 4)
	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		rep := sw.Rep(nid)
		if rep == nid {
			continue
		}
		for w := 0; w < 4; w++ {
			if vals[rep][w] != vals[nid][w] {
				t.Fatalf("proved pair %d/%d differs under simulation", nid, rep)
			}
		}
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
