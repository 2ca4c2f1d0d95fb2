package simgen

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	net, err := LoadBenchmark("apex2")
	if err != nil {
		t.Fatal(err)
	}
	run := NewRunner(net, 1, 42)
	before := run.Classes.Cost()
	gen := NewGenerator(net, StrategySimGen, 1)
	run.Run(gen, 10)
	if run.Classes.Cost() > before {
		t.Fatal("cost increased")
	}
	res := Sweep(net, run.Classes, SweepOptions{})
	if res.FinalCost != run.Classes.Cost() {
		t.Fatal("sweep result inconsistent")
	}
	if res.SATCalls == 0 {
		t.Fatal("expected SAT work on apex2")
	}
}

func TestFacadeBLIFRoundTrip(t *testing.T) {
	net, err := LoadBenchmark("misex3c")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, net); err != nil {
		t.Fatal(err)
	}
	net2, err := ParseBLIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CEC(net, net2, CECOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("BLIF round-trip changed the function")
	}
}

func TestFacadeAIGToNetwork(t *testing.T) {
	g := NewAIG("half")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO("s", g.Xor(a, b))
	g.AddPO("c", g.And(a, b))
	net, err := MapAIG(g, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumPIs() != 2 || net.NumPOs() != 2 {
		t.Fatal("mapping interface wrong")
	}
}

func TestFacadePutOnTop(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 42 {
		t.Fatalf("suite has %d benchmarks", len(bs))
	}
	g := bs[0].Build()
	st := PutOnTop(g, 2)
	if st.NumAnds() < g.NumAnds() {
		t.Fatal("stacking shrank the circuit")
	}
}

func TestFacadeUnknownBenchmark(t *testing.T) {
	if _, err := LoadBenchmark("nope"); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeBaselines(t *testing.T) {
	net, err := LoadBenchmark("ex5p")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []VectorSource{NewReverse(net, 1), NewRandom(net, 2)} {
		run := NewRunner(net, 1, 3)
		run.Run(src, 3)
		if run.Classes.NumClasses() == 0 {
			t.Fatalf("%s: no classes", src.Name())
		}
	}
}

func TestFacadeAIGERRoundTrip(t *testing.T) {
	g := NewAIG("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO("o", g.Xor(a, b))
	for _, binary := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteAIGER(&buf, g, binary); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadAIGER(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumPIs() != 2 || len(g2.POs()) != 1 {
			t.Fatal("interface lost")
		}
	}
}

func TestFacadePatterns(t *testing.T) {
	vectors := [][]bool{{true, false}, {false, true}}
	var buf bytes.Buffer
	if err := WritePatterns(&buf, vectors); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPatterns(&buf, 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("patterns round-trip: %v %v", got, err)
	}
}

func TestFacadeBDDSweeperAndApply(t *testing.T) {
	net, err := LoadBenchmark("misex3c")
	if err != nil {
		t.Fatal(err)
	}
	run := NewRunner(net, 1, 42)
	sw := NewSweeper(net, run.Classes, SweepOptions{Engine: EngineBDD})
	res := sw.Run()
	if res.BDDChecks == 0 {
		t.Fatal("no BDD checks")
	}
	reduced := ApplySweep(net, sw.Rep)
	if reduced.NumPIs() != net.NumPIs() {
		t.Fatal("interface changed")
	}
	cec, err := CEC(net, reduced, CECOptions{Seed: 5})
	if err != nil || !cec.Equivalent {
		t.Fatalf("BDD-swept network not equivalent: %v %v", cec.Equivalent, err)
	}
}

func TestFacadeExtensionSources(t *testing.T) {
	net, err := LoadBenchmark("ex5p")
	if err != nil {
		t.Fatal(err)
	}
	one := NewOneDistance(net, 1, 4)
	one.AddBase(make([]bool, net.NumPIs()))
	sv := NewSATVector(net, 2)
	for _, src := range []VectorSource{one, sv} {
		run := NewRunner(net, 1, 3)
		run.BatchSize = 2
		run.Run(src, 3)
	}
	if sv.SATCalls == 0 {
		t.Fatal("SAT vector source did no solver work")
	}
}

func TestFacadeGeneratorOptions(t *testing.T) {
	net, err := LoadBenchmark("apex2")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(net, StrategySimGen, 1)
	g.GoldPolicy = GoldAdaptive
	g.Backtrack = 4
	run := NewRunner(net, 1, 42)
	before := run.Classes.Cost()
	run.Run(g, 10)
	if run.Classes.Cost() > before {
		t.Fatal("cost increased")
	}
}

func TestFacadeSimulateVector(t *testing.T) {
	net := NewNetwork("t")
	a := net.AddPI("a")
	_ = a
	out := SimulateVector(net, []bool{true})
	if len(out) != 1 || !out[0] {
		t.Fatal("SimulateVector wrong")
	}
}

func TestFacadeParallelSweep(t *testing.T) {
	net, err := LoadBenchmark("pdc")
	if err != nil {
		t.Fatal(err)
	}
	run := NewRunner(net, 1, 42)
	sw := NewSweeper(net, run.Classes, SweepOptions{})
	res := sw.RunParallel(4)
	if res.SATCalls == 0 {
		t.Fatal("no SAT calls")
	}
	if run.Classes.Cost() != res.FinalCost {
		t.Fatal("cost mismatch")
	}
}

func TestFacadeBenchFormat(t *testing.T) {
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = AND(a, b)\n"
	net, err := ParseBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out := SimulateVector(net, []bool{true, true})
	if !out[net.POs()[0].Driver] {
		t.Fatal("bench semantics wrong")
	}
}

func TestFacadeAIGTransforms(t *testing.T) {
	net, err := LoadBenchmark("misex3c")
	if err != nil {
		t.Fatal(err)
	}
	g := AIGFromNetwork(net)
	if g.NumPIs() != net.NumPIs() {
		t.Fatal("FromNetwork interface wrong")
	}
	b := Balance(g)
	if b.Depth() > g.Depth() {
		t.Fatal("balance increased depth")
	}
	r := Refactor(CleanupAIG(b), 8)
	// Re-map and CEC against the original network: the whole transform
	// chain must be functionally invisible.
	remapped, err := MapAIG(r, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CEC(net, remapped, CECOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatal("transform chain changed the function")
	}
}

func TestFacadeWriteVerilog(t *testing.T) {
	net, err := LoadBenchmark("alu4")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, net); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "module alu4") {
		t.Fatal("module header missing")
	}
}

func TestFacadeOptimizeAndMetrics(t *testing.T) {
	net, err := LoadBenchmark("misex3c")
	if err != nil {
		t.Fatal(err)
	}
	g := AIGFromNetwork(net)
	opt := OptimizeFixpoint(g, nil, 4)
	remapped, err := MapAIG(opt, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CEC(net, remapped, CECOptions{Seed: 11})
	if err != nil || !res.Equivalent {
		t.Fatalf("optimize changed function: %v %v", res.Equivalent, err)
	}

	run := NewRunner(net, 1, 42)
	gen := NewGenerator(net, StrategySimGen, 1)
	vecs := gen.NextBatch(run.Classes, 8)
	if len(vecs) > 1 {
		if tr := ToggleRate(net, vecs); tr < 0 || tr > 1 {
			t.Fatalf("toggle rate %v", tr)
		}
		if e := NodeEntropy(net, vecs); e < 0 || e > 1 {
			t.Fatalf("entropy %v", e)
		}
		if sp := SplitPower(net, run.Classes, vecs); sp < 0 {
			t.Fatalf("split power %v", sp)
		}
	}

	var buf bytes.Buffer
	if err := WriteTestbench(&buf, net, vecs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "module misex3c_tb;") {
		t.Fatal("testbench header missing")
	}
}
