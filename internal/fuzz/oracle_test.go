package fuzz

import (
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/prover"
	"simgen/internal/sim"
	"simgen/internal/sweep"
	"simgen/internal/tt"
)

// TestNodeTablesMatchDirectEvaluation cross-checks the exhaustive oracle
// itself against direct truth-table evaluation on a hand-built circuit.
func TestNodeTablesMatchDirectEvaluation(t *testing.T) {
	net := network.New("hand")
	a := net.AddPI("a")
	b := net.AddPI("b")
	c := net.AddPI("c")
	and := net.AddLUT("and", []network.NodeID{a, b}, tt.Var(2, 0).And(tt.Var(2, 1)))
	xor3 := net.AddLUT("xor3", []network.NodeID{a, b, c}, parity(3, false))
	net.AddPO("f", and)
	net.AddPO("g", xor3)

	tables := NodeTables(net)
	wantAnd := tt.Var(3, 0).And(tt.Var(3, 1))
	if !tables[and].Equal(wantAnd) {
		t.Fatalf("AND table wrong: got %s want %s", tables[and], wantAnd)
	}
	if !tables[xor3].Equal(parity(3, false)) {
		t.Fatalf("XOR3 table wrong: got %s", tables[xor3])
	}
	if !tables[a].Equal(tt.Var(3, 0)) {
		t.Fatalf("PI table wrong: got %s", tables[a])
	}
}

// TestDifferentialCleanCampaign runs a mini campaign across every preset
// shape: no engine may disagree with exhaustive simulation.
func TestDifferentialCleanCampaign(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 8
	}
	res := RunCampaign(CampaignOptions{
		Seed:         101,
		N:            n,
		Differential: true,
		Log:          t.Logf,
	})
	for _, f := range res.Failures {
		t.Errorf("differential oracle failure: %v", f)
	}
}

// TestMetamorphicCleanCampaign: equivalence-preserving rewrites must check
// EQ, single-gate mutations must check NEQ with a valid counterexample.
func TestMetamorphicCleanCampaign(t *testing.T) {
	n := 15
	if testing.Short() {
		n = 5
	}
	res := RunCampaign(CampaignOptions{
		Seed:        202,
		N:           n,
		Metamorphic: true,
		Log:         t.Logf,
	})
	for _, f := range res.Failures {
		t.Errorf("metamorphic oracle failure: %v", f)
	}
}

// TestUnsoundSweeperCaught deliberately breaks the sweeper — the SAT check
// of one pair per sweep is skipped and assumed equivalent — and demands the
// differential oracle catch it within 200 iterations, with a shrunk
// reproducer of at most 20 nodes (the ISSUE acceptance bar).
func TestUnsoundSweeperCaught(t *testing.T) {
	fired := false
	cfg := Config{
		ResetFault: func() { fired = false },
		SweepOpts: sweep.Options{
			FaultHook: func(a, b network.NodeID) prover.Fault {
				if !fired {
					fired = true
					return prover.FaultAssumeEqual
				}
				return prover.FaultNone
			},
		},
	}
	var failure *Failure
	for i := 0; i < 200 && failure == nil; i++ {
		seed := iterationSeed(777, i)
		shape := Shapes()[ShapeNames()[i%len(ShapeNames())]]
		net := Generate(rand.New(rand.NewSource(seed)), shape)
		failure = CheckDifferential(net, cfg)
		if failure != nil {
			failure.Iteration = i
			failure.Seed = 777
			failure.Shape = shape.String()
		}
	}
	if failure == nil {
		t.Fatal("broken sweeper survived 200 fuzzing iterations undetected")
	}
	t.Logf("caught at iteration %d: %s: %s", failure.Iteration, failure.Check, failure.Detail)

	// The shrinking property re-runs the broken engine deterministically.
	prop := func(candidate *network.Network) bool {
		f := CheckDifferential(candidate, cfg)
		return f != nil && f.Check != "oracle-limit"
	}
	shrunk := Shrink(failure.Net, prop, 0)
	t.Logf("shrunk from %d to %d nodes", failure.Net.NumNodes(), shrunk.NumNodes())
	if shrunk.NumNodes() > 20 {
		t.Fatalf("reproducer still has %d nodes, want <= 20", shrunk.NumNodes())
	}
	failure.Net = shrunk
	dir := t.TempDir()
	path, err := WriteCorpus(dir, failure)
	if err != nil {
		t.Fatalf("writing reproducer: %v", err)
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatalf("reloading corpus: %v", err)
	}
	if len(entries) != 1 || entries[0].Path != path {
		t.Fatalf("corpus round trip lost the reproducer: %+v", entries)
	}
	if !prop(entries[0].Net) {
		t.Fatal("reloaded reproducer no longer triggers the broken sweeper")
	}
}

// TestMutantsAreCaught is a focused NEQ check: flipping one table bit of an
// observable node must flip the CEC verdict.
func TestMutantsAreCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shape := DefaultShape()
	shape.Dangling = false // keep every node observable
	caught := 0
	for i := 0; i < 10; i++ {
		net := Generate(rng, shape)
		mutant, site := Mutate(rng, net)
		if mutant == nil {
			continue
		}
		if outputsEqual(net, mutant) {
			continue // masked: CheckMetamorphic covers this side
		}
		res, err := sweep.CEC(net, mutant, sweep.CECOptions{Seed: int64(i)})
		if err != nil {
			t.Fatalf("CEC failed on mutation %s: %v", site, err)
		}
		if res.Equivalent || res.Undecided {
			t.Fatalf("mutation %s not caught: eq=%v undecided=%v", site, res.Equivalent, res.Undecided)
		}
		if ok, _ := sweep.VerifyCounterexample(net, mutant, res.Counterexample); !ok {
			t.Fatalf("mutation %s: counterexample invalid", site)
		}
		caught++
	}
	if caught == 0 {
		t.Fatal("no unmasked mutation generated in 10 attempts; generator too weak")
	}
}

// TestExhaustiveInputsLayout pins the minterm layout contract between
// sim.ExhaustiveInputs and tt.Table.
func TestExhaustiveInputsLayout(t *testing.T) {
	for _, npi := range []int{1, 3, 6, 7, 9} {
		net := network.New("pis")
		for i := 0; i < npi; i++ {
			net.AddPI("")
		}
		inputs, nwords := sim.ExhaustiveInputs(net)
		want := 1
		if npi > 6 {
			want = 1 << (npi - 6)
		}
		if nwords != want {
			t.Fatalf("npi=%d: nwords=%d want %d", npi, nwords, want)
		}
		for i := 0; i < npi; i++ {
			got := tt.FromWords(npi, inputs[i])
			if !got.Equal(tt.Var(npi, i)) {
				t.Fatalf("npi=%d PI %d: exhaustive input is not the projection table", npi, i)
			}
		}
	}
}
