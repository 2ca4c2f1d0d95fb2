package simgen

// End-to-end integration tests tying all subsystems together the way a
// downstream user would: format conversions, optimization, sweeping
// engines, and equivalence checks must compose without losing the circuit
// function.

import (
	"bytes"
	"testing"
)

// TestIntegrationFullToolchain pushes one benchmark through every format
// and transform in the repository and verifies the function survives:
//
//	genbench → map(K=6) → BLIF → parse → AIG → optimize → map(K=4)
//	→ AIGER(binary) → read → map(K=6) → CEC against the original.
func TestIntegrationFullToolchain(t *testing.T) {
	orig, err := LoadBenchmark("ex5p")
	if err != nil {
		t.Fatal(err)
	}

	// BLIF round trip.
	var blifBuf bytes.Buffer
	if err := WriteBLIF(&blifBuf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBLIF(&blifBuf)
	if err != nil {
		t.Fatal(err)
	}

	// Decompose, optimize, remap with a different K.
	g := AIGFromNetwork(parsed)
	g = OptimizeFixpoint(g, nil, 4)
	remapped, err := MapAIG(g, MapOptions{K: 4, CutsPerNode: 8})
	if err != nil {
		t.Fatal(err)
	}

	// AIGER binary round trip.
	var aigerBuf bytes.Buffer
	g2 := AIGFromNetwork(remapped)
	if err := WriteAIGER(&aigerBuf, g2, true); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadAIGER(&aigerBuf)
	if err != nil {
		t.Fatal(err)
	}
	final, err := MapAIG(g3, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}

	res, err := CEC(orig, final, CECOptions{Seed: 17, GuidedIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("toolchain altered the function; cex=%v po=%s", res.Counterexample, res.FailedPO)
	}
}

// TestIntegrationEnginesAgree sweeps the same circuit with the SAT engine,
// the parallel SAT engine, and the BDD engine; all three must merge exactly
// the same node pairs.
func TestIntegrationEnginesAgree(t *testing.T) {
	load := func() (*Network, *Runner) {
		net, err := LoadBenchmark("misex3c")
		if err != nil {
			t.Fatal(err)
		}
		return net, NewRunner(net, 1, 42)
	}

	netA, runA := load()
	sat := NewSweeper(netA, runA.Classes, SweepOptions{})
	sat.Run()

	netB, runB := load()
	par := NewSweeper(netB, runB.Classes, SweepOptions{})
	par.RunParallel(4)

	netC, runC := load()
	bdd := NewSweeper(netC, runC.Classes, SweepOptions{Engine: EngineBDD})
	bdd.Run()

	for id := 0; id < netA.NumNodes(); id++ {
		nid := NodeID(id)
		a := sat.Rep(nid) != nid
		b := par.Rep(nid) != nid
		c := bdd.Rep(nid) != nid
		if a != b || b != c {
			t.Fatalf("engines disagree on node %d: sat=%v par=%v bdd=%v", nid, a, b, c)
		}
	}
}

// TestIntegrationSweepReduceVerify runs the full optimize-verify loop on
// several benchmarks under -short-friendly sizes.
func TestIntegrationSweepReduceVerify(t *testing.T) {
	names := []string{"alu4", "e64"}
	if !testing.Short() {
		names = append(names, "apex2", "spla")
	}
	for _, name := range names {
		net, err := LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		run := NewRunner(net, 1, 42)
		gen := NewGenerator(net, StrategySimGen, 1)
		run.Run(gen, 15)
		sw := NewSweeper(net, run.Classes, SweepOptions{})
		res := sw.Run()
		reduced := ApplySweep(net, sw.Rep)
		if res.Proved > 0 && reduced.NumLUTs() >= net.NumLUTs() {
			t.Errorf("%s: no reduction despite %d proofs", name, res.Proved)
		}
		cec, err := CEC(net, reduced, CECOptions{Seed: 23})
		if err != nil || !cec.Equivalent {
			t.Fatalf("%s: reduction broke equivalence (%v)", name, err)
		}
	}
}
