package simgen

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus ablation benchmarks for the individual design choices
// (implication depth, decision heuristic) and for the substrate components.
//
// The full-resolution tables are produced by `go run ./cmd/experiments all`;
// these benchmarks measure the same pipelines under the Go benchmark
// harness so regressions in any stage show up as time/allocs changes.

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"simgen/internal/aig"
	"simgen/internal/bdd"
	"simgen/internal/blif"
	"simgen/internal/core"
	"simgen/internal/experiments"
	"simgen/internal/genbench"
	"simgen/internal/mapper"
	"simgen/internal/network"
	"simgen/internal/pcache"
	"simgen/internal/prover"
	"simgen/internal/sim"
	"simgen/internal/sweep"
	"simgen/internal/tt"
)

// benchCfg returns the experiment configuration used by the table/figure
// benchmarks: the paper's parameters with a conflict budget that keeps the
// slowest arithmetic proofs (voter, square) bounded.
func benchCfg(benchmarks ...string) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.ConflictBudget = 20000
	if len(benchmarks) > 0 {
		cfg.Benchmarks = benchmarks
	}
	return cfg
}

// BenchmarkTable1 regenerates Table 1 (normalized cost and simulation
// runtime of the five methods) over the full 42-benchmark suite.
func BenchmarkTable1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cost[0] != 1.0 {
			b.Fatal("normalization broken")
		}
	}
}

// BenchmarkTable2 regenerates the upper half of Table 2 (SAT calls and SAT
// time of RevS vs SimGen) over the full suite.
func BenchmarkTable2(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 42 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2Scaled regenerates one row of the lower half of Table 2
// (putontop-scaled benchmarks). The full scaled set runs via
// `cmd/experiments table2big`.
func BenchmarkTable2Scaled(b *testing.B) {
	cfg := benchCfg()
	set := []experiments.ScaledBenchmark{{Name: "alu4", Copies: 15}}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2Scaled(cfg, set)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].CallsRevS == 0 && rows[0].CallsSGen == 0 {
			b.Fatal("scaled benchmark produced no SAT work")
		}
	}
}

// BenchmarkFigure5 regenerates the Figure 5 data (per-benchmark normalized
// differences of cost, simulation runtime, SAT calls and SAT time) on a
// representative subset.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchCfg("alu4", "apex2", "cps", "pdc", "spla", "ex1010", "priority", "b14_C")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fr := experiments.FigureRows(rows)
		if len(fr) != 8 {
			b.Fatal("figure rows wrong")
		}
	}
}

// BenchmarkFigure6 regenerates the Figure 6 data (normalized differences on
// stacked benchmarks) for one stacked circuit.
func BenchmarkFigure6(b *testing.B) {
	cfg := benchCfg()
	set := []experiments.ScaledBenchmark{{Name: "arbiter", Copies: 15}}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2Scaled(cfg, set)
		if err != nil {
			b.Fatal(err)
		}
		if len(experiments.FigureRows(rows)) != 1 {
			b.Fatal("figure rows wrong")
		}
	}
}

// BenchmarkFigure7 regenerates the Figure 7 trajectories (RandS vs
// RandS+RevS vs RandS+SimGen) on the paper's two circuits, apex2 and cps.
func BenchmarkFigure7(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"apex2", "cps"} {
			trs, err := experiments.Figure7(bench, 30, 3, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(trs) != 3 {
				b.Fatal("trajectories wrong")
			}
		}
	}
}

// --- Ablation benchmarks: the design choices DESIGN.md calls out. ---

func benchGeneration(b *testing.B, strategy core.Strategy) {
	net, err := LoadBenchmark("apex2")
	if err != nil {
		b.Fatal(err)
	}
	run := core.NewRunner(net, 1, 42)
	gen := core.NewGenerator(net, strategy, 1)
	classIdx := run.Classes.NonSingleton()
	if len(classIdx) == 0 {
		b.Fatal("no classes")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members := run.Classes.Members(classIdx[i%len(classIdx)])
		targets, gold := core.OutGold(members)
		gen.VectorForTargets(targets, gold)
	}
}

// BenchmarkAblationSIRD measures vector generation with simple implication
// and random decisions (the SI+RD column of Table 1).
func BenchmarkAblationSIRD(b *testing.B) { benchGeneration(b, core.StrategySIRD) }

// BenchmarkAblationAIRD measures advanced implication with random decisions.
func BenchmarkAblationAIRD(b *testing.B) { benchGeneration(b, core.StrategyAIRD) }

// BenchmarkAblationAIDC measures advanced implication with the don't-care
// heuristic.
func BenchmarkAblationAIDC(b *testing.B) { benchGeneration(b, core.StrategyAIDC) }

// BenchmarkAblationSimGen measures the full AI+DC+MFFC configuration.
func BenchmarkAblationSimGen(b *testing.B) { benchGeneration(b, core.StrategySimGen) }

// BenchmarkAblationRevS measures the reverse-simulation baseline's vector
// generation for comparison with the four SimGen configurations.
func BenchmarkAblationRevS(b *testing.B) {
	net, err := LoadBenchmark("apex2")
	if err != nil {
		b.Fatal(err)
	}
	run := core.NewRunner(net, 1, 42)
	rev := core.NewReverse(net, 1)
	classIdx := run.Classes.NonSingleton()
	if len(classIdx) == 0 {
		b.Fatal("no classes")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members := run.Classes.Members(classIdx[i%len(classIdx)])
		rev.VectorForPair(members[0], members[1])
	}
}

// guidedSuite is BenchmarkGuidedSuite's fixed handful of genbench circuits.
var guidedSuite = []string{"alu4", "apex2", "cps", "pdc", "spla"}

// BenchmarkGuidedSuite measures guided simulation from cold over a handful
// of suite circuits: each op runs NewRunner, NewGenerator and 20 SimGen
// iterations on a fresh clone of every circuit, so the ISOP covers, row
// memos and cone caches are built inside the op, as in a suite pass.
// implications/s is implication-engine row applications per second.
func BenchmarkGuidedSuite(b *testing.B) {
	var nets []*Network
	for _, name := range guidedSuite {
		net, err := LoadBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		nets = append(nets, net)
	}
	var implications int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, net := range nets {
			b.StopTimer()
			net = net.Clone()
			b.StartTimer()
			run := core.NewRunner(net, 1, 42)
			gen := core.NewGenerator(net, core.StrategySimGen, 1)
			run.RunContext(context.Background(), gen, 20)
			implications += gen.GenStats().Implications
		}
	}
	b.ReportMetric(float64(implications)/b.Elapsed().Seconds(), "implications/s")
}

// --- Substrate benchmarks. ---

// BenchmarkSimulation64 measures bit-parallel simulation of 64 vectors
// through a mid-size benchmark on the production hot path: a compiled
// Simulator reused across batches, as the runner and the sweeping engines
// hold it. The "oneshot" arm pays per-call compilation and is the
// convenience path only.
func BenchmarkSimulation64(b *testing.B) {
	net, err := LoadBenchmark("pdc")
	if err != nil {
		b.Fatal(err)
	}
	run := core.NewRunner(net, 1, 1) // warms the cover cache
	_ = run
	rng := rand.New(rand.NewSource(2))
	inputs := sim.RandomInputs(net, 1, rng)
	s := sim.NewSimulator(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Simulate(inputs, 1)
	}
}

// BenchmarkSimulation64Oneshot measures the package-level convenience path,
// which compiles a fresh Simulator per call.
func BenchmarkSimulation64Oneshot(b *testing.B) {
	net, err := LoadBenchmark("pdc")
	if err != nil {
		b.Fatal(err)
	}
	run := core.NewRunner(net, 1, 1)
	_ = run
	rng := rand.New(rand.NewSource(2))
	inputs := sim.RandomInputs(net, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(net, inputs, 1)
	}
}

// BenchmarkSATSweep measures a full sweep (simulation + SAT) of apex2.
func BenchmarkSATSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := LoadBenchmark("apex2")
		if err != nil {
			b.Fatal(err)
		}
		run := core.NewRunner(net, 1, 42)
		gen := core.NewGenerator(net, core.StrategySimGen, 1)
		run.Run(gen, 20)
		res := sweep.New(net, run.Classes, sweep.Options{}).Run()
		if res.FinalCost != 0 && res.Unresolved == 0 && res.SATCalls == 0 {
			b.Fatal("no work")
		}
	}
}

// BenchmarkSimEngine measures the exhaustive-simulation rung of the prover
// ladder: a fresh prover.Sim (so its one-time setup is paid, as once per
// sweep) deciding every apex2 candidate pair — class representative vs
// member after random simulation — whose combined support has at most
// DefaultSimPIs inputs.
func BenchmarkSimEngine(b *testing.B) {
	net, err := LoadBenchmark("apex2")
	if err != nil {
		b.Fatal(err)
	}
	run := core.NewRunner(net, 1, 42)
	type pair struct{ a, b NodeID }
	var pairs []pair
	cone := network.NewCone(net)
	for _, ci := range run.Classes.NonSingleton() {
		members := run.Classes.Members(ci)
		for _, m := range members[1:] {
			if len(prover.Support(net, cone, members[0], m)) <= prover.DefaultSimPIs {
				pairs = append(pairs, pair{members[0], m})
			}
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no small-support candidate pairs")
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := prover.NewSim(net, 0, nil)
		for _, p := range pairs {
			if r := eng.Prove(ctx, p.a, p.b, prover.Budget{}); r.Verdict == prover.Unknown {
				b.Fatal("sim engine declined a pair under its cutoff")
			}
		}
	}
}

// BenchmarkMapSuite measures K=6 LUT mapping as the suite workload of the
// pipeline benchmark pays for it: one op maps the and-inverter graphs of
// all genbench circuits but voter, built once before the timer starts.
func BenchmarkMapSuite(b *testing.B) {
	var graphs []*aig.Graph
	for _, bench := range genbench.Registry() {
		if bench.Name != "voter" {
			graphs = append(graphs, bench.Build())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := mapper.Map(g, mapper.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkISOP measures cover extraction for random 6-input functions —
// the hot path when node row tables are first built.
func BenchmarkISOP(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	fns := make([]tt.Table, 256)
	for i := range fns {
		fns[i] = tt.FromWords(6, []uint64{rng.Uint64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt.ISOP(fns[i%len(fns)])
	}
}

// BenchmarkCEC measures end-to-end equivalence checking of a benchmark
// against its BLIF round-trip.
func BenchmarkCEC(b *testing.B) {
	net, err := LoadBenchmark("alu4")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := CEC(net, net.Clone(), CECOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equivalent {
			b.Fatal("self-CEC failed")
		}
	}
}

// --- Extension ablations: alternative vector sources and the BDD-vs-SAT
// sweeping engines. ---

func benchSourcePipeline(b *testing.B, mk func(net *Network) VectorSource) {
	net, err := LoadBenchmark("apex2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := core.NewRunner(net, 1, 42)
		run.BatchSize = 1
		run.Run(mk(net), 20)
	}
}

// BenchmarkSourceOneDistance measures refinement driven by 1-distance
// vectors (Mishchenko et al.), a related-work baseline.
func BenchmarkSourceOneDistance(b *testing.B) {
	benchSourcePipeline(b, func(net *Network) VectorSource {
		return NewOneDistance(net, 7, 8)
	})
}

// BenchmarkSourceSATVectors measures refinement driven by SAT-generated
// vectors (Lee et al. style) — each vector costs a solver call.
func BenchmarkSourceSATVectors(b *testing.B) {
	benchSourcePipeline(b, func(net *Network) VectorSource {
		return NewSATVector(net, 7)
	})
}

// BenchmarkSourceSimGen is the matching SimGen pipeline for the two
// baselines above.
func BenchmarkSourceSimGen(b *testing.B) {
	benchSourcePipeline(b, func(net *Network) VectorSource {
		return NewGenerator(net, StrategySimGen, 7)
	})
}

// BenchmarkBDDSweepVsSAT compares the two sweeping engines on a
// control-dominated circuit (where BDDs behave) — the historic trade-off
// the paper's related work describes.
func BenchmarkBDDSweepVsSAT(b *testing.B) {
	b.Run("bdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net, _ := LoadBenchmark("misex3c")
			run := core.NewRunner(net, 1, 42)
			sweep.New(net, run.Classes, sweep.Options{Engine: sweep.EngineBDD}).Run()
		}
	})
	b.Run("sat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net, _ := LoadBenchmark("misex3c")
			run := core.NewRunner(net, 1, 42)
			sweep.New(net, run.Classes, sweep.Options{}).Run()
		}
	})
}

// BenchmarkApplySweep measures the fraig-style network reduction.
func BenchmarkApplySweep(b *testing.B) {
	net, _ := LoadBenchmark("apex2")
	run := core.NewRunner(net, 1, 42)
	sw := sweep.New(net, run.Classes, sweep.Options{})
	sw.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplySweep(net, sw.Rep)
	}
}

// BenchmarkBalance measures AIG depth balancing on the des benchmark.
func BenchmarkBalance(b *testing.B) {
	bench, _ := genbench.ByName("des")
	g := bench.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Balance(g)
	}
}

// BenchmarkRefactor measures cone resynthesis on the spla benchmark.
func BenchmarkRefactor(b *testing.B) {
	bench, _ := genbench.ByName("spla")
	g := bench.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Refactor(g, 8)
	}
}

// BenchmarkAIGERBinaryRoundTrip measures AIGER write+read of b17_C.
func BenchmarkAIGERBinaryRoundTrip(b *testing.B) {
	bench, _ := genbench.ByName("b17_C")
	g := bench.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteAIGER(&buf, g, true); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadAIGER(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSweep is the scheduler scaling family: a representative
// Table 2 subset swept at 1..16 workers. Setup (parsing, random
// simulation, class construction) runs off the clock so each sub-benchmark
// times only the sweep itself; `make bench-scaling` records the speedup
// curve into results/BENCH_parallel.json.
func BenchmarkParallelSweep(b *testing.B) {
	suite := []string{"alu4", "apex2", "cps", "pdc", "spla"}
	nets := make(map[string]*Network, len(suite))
	for _, name := range suite {
		net, err := LoadBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		nets[name] = net
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, name := range suite {
					b.StopTimer()
					net := nets[name]
					run := core.NewRunner(net, 1, 42)
					sw := sweep.New(net, run.Classes, sweep.Options{})
					b.StartTimer()
					res := sw.RunParallel(workers)
					if res.Proved == 0 && res.Disproved == 0 {
						b.Fatalf("%s: sweep produced no verdicts", name)
					}
				}
			}
		})
	}
}

// BenchmarkWarmSweep is the cross-run cache family: the Table 2 subset
// swept cache-cold (fresh cache directory every iteration, paying the SAT
// calls and recording proofs + patterns) versus cache-warm (a shared
// prefilled directory; pattern replay rebuilds the cold run's splits and
// every obligation settles from revalidated cache hits, so the warm half
// performs zero SAT calls — asserted, not assumed). `make bench-cache`
// records the cold/warm wall-time and SAT-call contrast into
// results/BENCH_cache.json.
func BenchmarkWarmSweep(b *testing.B) {
	suite := []string{"alu4", "apex2", "cps", "pdc", "spla"}
	nets := make(map[string]*Network, len(suite))
	for _, name := range suite {
		net, err := LoadBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		nets[name] = net
	}
	// sweepAll sweeps the suite against the cache directory and returns
	// total SAT calls; every run replays stored patterns first, exactly the
	// cmd/sweep -cache-dir pipeline minus guided generation.
	sweepAll := func(b *testing.B, dir string) int64 {
		st, err := pcache.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		var calls int64
		for _, name := range suite {
			net := nets[name]
			run := core.NewRunner(net, 1, 42)
			sess := pcache.NewSession(st, net, nil)
			sess.Replay(context.Background(), run)
			res := sweep.New(net, run.Classes, sweep.Options{Cache: sess}).Run()
			if res.Proved == 0 && res.Disproved == 0 {
				b.Fatalf("%s: sweep produced no verdicts", name)
			}
			calls += int64(res.SATCalls)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return calls
	}

	b.Run("cold", func(b *testing.B) {
		var calls int64
		for i := 0; i < b.N; i++ {
			calls = sweepAll(b, b.TempDir())
		}
		if calls == 0 {
			b.Fatal("cold sweep performed no SAT calls; nothing is being measured")
		}
		b.ReportMetric(float64(calls), "satcalls/op")
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		sweepAll(b, dir) // prefill off the clock
		b.ResetTimer()
		var calls int64
		for i := 0; i < b.N; i++ {
			calls = sweepAll(b, dir)
		}
		if calls != 0 {
			b.Fatalf("warm sweep performed %d SAT calls; the cache guarantee is broken", calls)
		}
		b.ReportMetric(0, "satcalls/op")
	})
}

// BenchmarkBDDBuild measures BDD construction for all POs of misex3c.
func BenchmarkBDDBuild(b *testing.B) {
	net, _ := LoadBenchmark("misex3c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := bdd.NewBuilder(net)
		for _, po := range net.POs() {
			if _, err := builder.Node(context.Background(), po.Driver); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// loadDatapathPair reads one golden corpus pair from testdata/datapath —
// the same committed BLIF files the corpus replay test checks and a
// cmd/sweep -cec user would pass. The pairs are built and
// technology-mapped independently per half (genbench.SplitTwin), so they
// share no structure beyond what the two algorithms genuinely compute in
// common.
func loadDatapathPair(b *testing.B, name string) (*Network, *Network) {
	b.Helper()
	load := func(file string) *Network {
		f, err := os.Open(filepath.Join("testdata", "datapath", file))
		if err != nil {
			b.Fatalf("opening %s (regenerate with go test ./internal/sweep -run DatapathCorpus -update-datapath): %v", file, err)
		}
		defer f.Close()
		net, err := blif.Parse(f)
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	return load(name + "_a.blif"), load(name + "_b.blif")
}

// datapathCEC runs one CEC arm over a datapath corpus pair under the
// cmd/sweep -cec defaults (random rounds, 20 guided SimGen iterations,
// then a portfolio sweep with the 4x/2-rung escalation ladder). On the
// multiplier pairs the bit-level arm faces the cross-implementation
// miters nearly cold, while the word arm proves the internal adder words
// bottom-up and learns the per-bit equalities into the shared solver
// before any wide miter is posed — that is the contrast being measured.
func datapathCEC(b *testing.B, an, bn *Network, word bool) (time.Duration, sweep.CECResult) {
	b.Helper()
	opts := sweep.CECOptions{
		Seed:             1,
		GuidedIterations: 20,
		Method:           "simgen",
		Sweep: sweep.Options{
			Engine:           sweep.EnginePortfolio,
			EscalationFactor: 4,
			MaxEscalations:   2,
		},
	}
	if word {
		opts.Sweep.WordStage = true
	}
	start := time.Now()
	res, err := sweep.CEC(an, bn, opts)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Equivalent || res.Undecided {
		b.Fatalf("datapath pair: eq=%v undecided=%v", res.Equivalent, res.Undecided)
	}
	return time.Since(start), res
}

// BenchmarkDatapathCEC measures the split multiplier pairs with the
// word-staged portfolio ("word") vs the plain bit-level
// portfolio ("bit"). The setup is the datapath tripwire: on the 10x10
// pair the word arm must beat the bit-level arm by at least 2x wall clock
// — generous against the ~36x measured on a 2-vCPU Xeon
// (results/BENCH_datapath.json) but tight enough to catch the word stage
// silently disengaging or its learned equalities no longer reaching the
// solver. The timed sub-benchmarks report the faster 8x8 pair.
// `make bench-datapath` reports both arms; the CI datapath job runs this
// with -benchtime 1x.
func BenchmarkDatapathCEC(b *testing.B) {
	a10, b10 := loadDatapathPair(b, "mul10x10")
	wd, wres := datapathCEC(b, a10, b10, true)
	if wres.Sweep.WordChecks == 0 {
		b.Fatal("word arm performed no word checks; the stage is not engaged")
	}
	bd, _ := datapathCEC(b, a10, b10, false)
	if bd < 2*wd {
		b.Fatalf("word stage no longer pays on mul10x10: word %v vs bit-level %v (< 2x)", wd, bd)
	}
	b.Logf("mul10x10 tripwire: word %v vs bit-level %v (%.1fx)", wd, bd, float64(bd)/float64(wd))

	a8, b8 := loadDatapathPair(b, "mul8x8")
	for _, arm := range []struct {
		name string
		word bool
	}{{"word", true}, {"bit", false}} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			var calls int
			for i := 0; i < b.N; i++ {
				_, res := datapathCEC(b, a8, b8, arm.word)
				calls = res.Sweep.SATCalls
			}
			b.ReportMetric(float64(calls), "satcalls/op")
		})
	}
}
