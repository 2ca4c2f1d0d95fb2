// Package simgen is an open-source implementation of SimGen ("SimGen:
// Simulation Pattern Generation for Efficient Equivalence Checking",
// DATE 2025): a simulation-vector generator that splits candidate
// equivalence classes before SAT sweeping, dramatically reducing the number
// of SAT calls needed for combinational equivalence checking.
//
// The package bundles everything a sweeping flow needs:
//
//   - LUT networks with BLIF and ISCAS ".bench" I/O
//   - and-inverter graphs plus a K-LUT technology mapper ("if -K 6")
//   - bit-parallel simulation and equivalence-class management
//   - the SimGen pattern generator with its implication and decision
//     strategies, and the reverse/random simulation baselines
//   - a CDCL SAT solver, Tseitin encoding, SAT sweeping and CEC
//   - the 42-circuit benchmark suite and the paper's experiment harness
//
// All verification entry points have context-aware variants (Refine,
// CECContext, Sweeper.RunContext/RunParallelContext): a deadline or cancel
// interrupts the SAT solver promptly and yields a partial result with
// Incomplete/TimedOut accounting. Budget-exhausted pairs climb an
// escalation ladder of growing conflict budgets and finally fall back to
// the BDD engine; see SweepOptions.
//
// # Quick start
//
//	net, _ := simgen.LoadBenchmark("apex2")
//	run := simgen.NewRunner(net, 1, 42)      // one random round
//	gen := simgen.NewGenerator(net, simgen.StrategySimGen, 1)
//	run.Run(gen, 20)                          // up to 20 guided iterations
//	res := simgen.Sweep(net, run.Classes, simgen.SweepOptions{})
//	fmt.Println(res.SATCalls, "SAT calls,", res.Proved, "equivalences proven")
package simgen

import (
	"context"
	"io"

	"simgen/internal/aig"
	"simgen/internal/aiger"
	"simgen/internal/blif"
	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/load"
	"simgen/internal/mapper"
	"simgen/internal/metrics"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/patio"
	"simgen/internal/pcache"
	"simgen/internal/prover"
	"simgen/internal/sim"
	"simgen/internal/sweep"
	"simgen/internal/verilog"
)

// Core re-exported types. The network package types form the central data
// model: a DAG of K-input LUT nodes.
type (
	// Network is a LUT-mapped Boolean network.
	Network = network.Network
	// NodeID identifies a node within a Network.
	NodeID = network.NodeID
	// Classes is a candidate equivalence-class partition of a network.
	Classes = sim.Classes
	// Runner drives iterative simulation refinement (Fig. 2 of the paper).
	Runner = core.Runner
	// IterationStat reports one refinement iteration.
	IterationStat = core.IterationStat
	// VectorSource produces batches of simulation vectors; SimGen, reverse
	// simulation, and random simulation all implement it.
	VectorSource = core.VectorSource
	// Generator is the SimGen pattern generator (Algorithm 1).
	Generator = core.Generator
	// Strategy selects the implication and decision techniques.
	Strategy = core.Strategy
	// AIG is an and-inverter graph, the input of the technology mapper.
	AIG = aig.Graph
	// Lit is an AIG literal (node index with complement bit).
	Lit = aig.Lit
	// Word is a little-endian vector of AIG literals for word-level
	// arithmetic construction.
	Word = aig.Word
	// MapOptions configures K-LUT mapping.
	MapOptions = mapper.Options
	// SweepOptions configures SAT sweeping.
	SweepOptions = sweep.Options
	// SweepResult reports sweeping work: SAT calls, SAT time, proofs.
	SweepResult = sweep.Result
	// Sweeper verifies candidate equivalences on the proof engine that
	// SweepOptions.Engine selects; every engine it proves with is built
	// complete (tracer, proof cache) when the Sweeper is.
	Sweeper = sweep.Sweeper
	// CECOptions configures the flow: Refine, then sweeping or CEC.
	CECOptions = sweep.CECOptions
	// CECResult is a CEC verdict with an optional counterexample.
	CECResult = sweep.CECResult
	// Benchmark is a named synthetic circuit from the paper's suite.
	Benchmark = genbench.Benchmark
	// Refinement is the simulation half of the flow as Refine leaves it.
	Refinement = sweep.Refinement
	// OneDistance is the 1-distance vector baseline (Mishchenko et al.).
	OneDistance = core.OneDistance
	// SATVector is the SAT-generated vector baseline (Lee et al. style).
	SATVector = core.SATVector
	// Fault is a test-only injected failure for SweepOptions.FaultHook (a
	// prover.FaultHook), exercising the sweeping degradation paths
	// deterministically.
	Fault = prover.Fault
	// EngineKind selects the proof engine a Sweeper schedules obligations
	// on (SweepOptions.Engine).
	EngineKind = sweep.EngineKind
	// Tracer receives typed observability events from the simulation and
	// sweeping pipeline (SweepOptions.Tracer, Runner.SetTracer).
	Tracer = obs.Tracer
	// TraceEvent is one observability event.
	TraceEvent = obs.Event
	// JSONLTracer streams events as JSON Lines.
	JSONLTracer = obs.JSONL
	// Collector aggregates events into an end-of-run Report.
	Collector = obs.Collector
	// RunReport is the collector's structured end-of-run summary.
	RunReport = obs.Report
	// Metrics is a registry of counters, gauges, and latency histograms.
	Metrics = obs.Metrics
	// ProofCache is the persistent cross-run verification memory: a
	// journaled, NPN-keyed store of verdicts and high-split-power
	// simulation patterns (one per cache directory).
	ProofCache = pcache.Store
	// CacheSession binds a ProofCache to one network for one run; it
	// plugs into SweepOptions.Cache and replays stored patterns.
	CacheSession = pcache.Session
)

// NopTracer discards every event at zero cost; it is the default wherever a
// Tracer is accepted.
var NopTracer = obs.Nop

// NewJSONLTracer returns a tracer streaming events to w as JSON Lines.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONL(w) }

// NewCollector returns a tracer aggregating events into a RunReport.
func NewCollector() *Collector { return obs.NewCollector() }

// NewMetrics returns an empty metrics registry; NewMetricsTracer adapts it
// into a Tracer updating the registry on every event.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewMetricsTracer returns a tracer folding events into the registry.
func NewMetricsTracer(m *Metrics) Tracer { return obs.NewMetricsTracer(m) }

// MultiTracer fans events out to every non-nil tracer.
func MultiTracer(ts ...Tracer) Tracer { return obs.Multi(ts...) }

// Proof engines for SweepOptions.Engine.
const (
	// EngineSAT is the default SAT-miter engine with the escalation ladder
	// and optional BDD fallback.
	EngineSAT = sweep.EngineSAT
	// EngineBDD proves every pair on canonical BDDs.
	EngineBDD = sweep.EngineBDD
	// EnginePortfolio chains free exhaustive-simulation proofs for pairs of
	// at most 12 support inputs, the SAT ladder, and the BDD fallback.
	EnginePortfolio = sweep.EnginePortfolio
)

// ParseSweepEngine maps a CLI engine name (sat|bdd|portfolio) to its kind.
func ParseSweepEngine(s string) (EngineKind, error) { return sweep.ParseEngine(s) }

// Fault kinds for SweepOptions.FaultHook, the prover package's own.
const (
	FaultNone        = prover.FaultNone
	FaultUnknown     = prover.FaultUnknown
	FaultPanic       = prover.FaultPanic
	FaultAssumeEqual = prover.FaultAssumeEqual
)

// Constant AIG literals.
const (
	LitFalse = aig.False
	LitTrue  = aig.True
)

// Node kinds.
const (
	KindConst = network.KindConst
	KindPI    = network.KindPI
	KindLUT   = network.KindLUT
)

// SimulateVector evaluates the network on one input vector (assign[i] is
// the value of the i-th primary input) and returns one value per node.
func SimulateVector(net *Network, assign []bool) []bool {
	return sim.SimulateVector(net, assign)
}

// Strategy presets from the paper (Table 1). StrategySimGen (advanced
// implication + don't-care + MFFC decision) is "SimGen" proper.
var (
	StrategySIRD   = core.StrategySIRD
	StrategyAIRD   = core.StrategyAIRD
	StrategyAIDC   = core.StrategyAIDC
	StrategySimGen = core.StrategySimGen
)

// NewNetwork returns an empty LUT network with the given name.
func NewNetwork(name string) *Network { return network.New(name) }

// NewAIG returns an empty and-inverter graph.
func NewAIG(name string) *AIG { return aig.New(name) }

// ParseBLIF reads a combinational BLIF model.
func ParseBLIF(r io.Reader) (*Network, error) { return blif.Parse(r) }

// WriteBLIF writes the network as BLIF.
func WriteBLIF(w io.Writer, net *Network) error { return blif.Write(w, net) }

// ParseBench reads an ISCAS/ITC'99 ".bench" netlist; flip-flops are cut
// into pseudo PIs/POs (the standard combinational "_C" transformation).
func ParseBench(r io.Reader) (*Network, error) { return blif.ParseBench(r) }

// MapAIG covers an and-inverter graph with K-input LUTs; the zero Options
// value selects the paper's K=6 configuration.
func MapAIG(g *AIG, opts MapOptions) (*Network, error) {
	if opts.K == 0 {
		opts = mapper.DefaultOptions()
	}
	return mapper.Map(g, opts)
}

// NewRunner performs randRounds words (64 vectors each) of random
// simulation and returns a runner holding the resulting classes.
func NewRunner(net *Network, randRounds int, seed int64) *Runner {
	return core.NewRunner(net, randRounds, seed)
}

// NewGenerator returns a SimGen pattern generator with the given strategy.
func NewGenerator(net *Network, strategy Strategy, seed int64) *Generator {
	return core.NewGenerator(net, strategy, seed)
}

// NewSource builds a guided method's vector source by name (simgen,
// ai+dc+mffc, ai+dc, ai+rd, si+rd, revs, rands), or nil for "none"; it
// panics on any other name, which Refine and CECOptions.Check reject with
// an error.
func NewSource(net *Network, method string, seed int64) VectorSource {
	return core.NewSource(net, method, seed)
}

// DefaultCECOptions returns the flow's shared defaults, the ones cmd/sweep,
// cmd/simgen and sweepd start from; CECOptions.Check is their range rule.
func DefaultCECOptions() CECOptions { return sweep.DefaultCECOptions() }

// Refine runs the simulation half of the flow: random rounds, cache
// pattern replay, then the guided method; see CECOptions. A network of at
// most 12 inputs is simulated over every input assignment instead, and its
// exact classes sweep with no engine call (Refinement.Exact).
func Refine(ctx context.Context, net *Network, opts CECOptions) (Refinement, error) {
	return sweep.Refine(ctx, net, opts)
}

// NewReverse returns the reverse-simulation baseline (Zhang et al.).
func NewReverse(net *Network, seed int64) VectorSource {
	return core.NewReverse(net, seed)
}

// NewRandom returns the random-simulation baseline.
func NewRandom(net *Network, seed int64) VectorSource {
	return core.NewRandom(net, seed)
}

// NewOneDistance returns the 1-distance vector source: each vector is a
// pool vector with exactly one bit flipped.
func NewOneDistance(net *Network, seed int64, nseed int) *OneDistance {
	return core.NewOneDistance(net, seed, nseed)
}

// NewSATVector returns the SAT-based vector source: every vector is a
// solver model separating two class members, at one SAT call apiece.
func NewSATVector(net *Network, seed int64) *SATVector {
	return core.NewSATVector(net, seed)
}

// WriteVerilog emits the network as a structural Verilog module (one SOP
// assign per LUT).
func WriteVerilog(w io.Writer, net *Network) error { return verilog.Write(w, net) }

// AIGFromNetwork decomposes a LUT network into an and-inverter graph, e.g.
// to re-map an imported circuit with a different K.
func AIGFromNetwork(net *Network) *AIG { return aig.FromNetwork(net) }

// Balance rebuilds the graph with depth-balanced AND trees (ABC-style
// "balance"); the result is functionally equivalent with depth no larger.
func Balance(g *AIG) *AIG { return aig.Balance(g) }

// CleanupAIG removes logic unreachable from the primary outputs and
// re-applies structural hashing.
func CleanupAIG(g *AIG) *AIG { return aig.Cleanup(g) }

// Refactor resynthesizes local cones from their truth tables when that
// shrinks them (ABC-style "refactor"); node count never grows.
func Refactor(g *AIG, maxCut int) *AIG { return aig.Refactor(g, maxCut) }

// OptimizeFixpoint runs a synthesis script (passes from "balance",
// "rewrite", "refactor", "cleanup"; a nil script selects the classic light
// script) until node count and depth stop improving.
func OptimizeFixpoint(g *AIG, script []string, maxRounds int) *AIG {
	return aig.OptimizeFixpoint(g, script, maxRounds)
}

// WriteTestbench emits a self-checking Verilog testbench applying the
// vectors against golden values from this repository's simulator.
func WriteTestbench(w io.Writer, net *Network, vectors [][]bool) error {
	return verilog.WriteTestbench(w, net, vectors)
}

// ToggleRate, NodeEntropy and SplitPower quantify vector quality — the
// proxies optimized by the related work ("high toggle rate", "expressive"
// vectors) and the class-splitting measure SimGen optimizes directly.
func ToggleRate(net *Network, vectors [][]bool) float64 {
	return metrics.ToggleRate(net, vectors)
}

// NodeEntropy returns the mean per-node binary entropy under the vectors.
func NodeEntropy(net *Network, vectors [][]bool) float64 {
	return metrics.NodeEntropy(net, vectors)
}

// SplitPower returns the cost reduction the vectors would achieve on a
// copy of the partition (the partition itself is unchanged).
func SplitPower(net *Network, classes *Classes, vectors [][]bool) int {
	return metrics.SplitPower(net, classes, vectors)
}

// WritePatterns emits simulation vectors as a pattern file (one '0'/'1'
// line per vector, PI order).
func WritePatterns(w io.Writer, vectors [][]bool) error { return patio.Write(w, vectors) }

// ReadPatterns parses a pattern file; width (the network's PI count) is
// enforced when positive.
func ReadPatterns(r io.Reader, width int) ([][]bool, error) { return patio.Read(r, width) }

// ReadAIGER parses an AIGER file (ASCII "aag" or binary "aig").
func ReadAIGER(r io.Reader) (*AIG, error) { return aiger.Read(r) }

// WriteAIGER writes the graph in AIGER format; binary selects the compact
// "aig" variant.
func WriteAIGER(w io.Writer, g *AIG, binary bool) error { return aiger.Write(w, g, binary) }

// ApplySweep materializes proven equivalences into a reduced network whose
// merged nodes are redirected to their representatives (fraig-style
// reduction). rep is typically (*Sweeper).Rep.
func ApplySweep(net *Network, rep func(NodeID) NodeID) *Network {
	return sweep.Apply(net, rep)
}

// Sweep runs SAT sweeping over the classes: every candidate pair is proven
// equivalent (and merged) or disproven (splitting classes further via the
// counterexample).
func Sweep(net *Network, classes *Classes, opts SweepOptions) SweepResult {
	return sweep.New(net, classes, opts).Run()
}

// NewSweeper returns a sweeping engine whose representative mapping can be
// inspected after Run.
func NewSweeper(net *Network, classes *Classes, opts SweepOptions) *Sweeper {
	return sweep.New(net, classes, opts)
}

// CEC checks combinational equivalence of two networks (matched by PI/PO
// position) using simulation, SAT sweeping and per-output SAT calls.
func CEC(a, b *Network, opts CECOptions) (CECResult, error) {
	return sweep.CEC(a, b, opts)
}

// CECContext is CEC under a context: a deadline or cancel stops guided
// simulation, sweeping, and the per-output SAT calls promptly; the verdict
// is then Undecided rather than an error.
func CECContext(ctx context.Context, a, b *Network, opts CECOptions) (CECResult, error) {
	return sweep.CECContext(ctx, a, b, opts)
}

// VerifyCounterexample confirms that a CEC counterexample separates the two
// circuits, returning the name of a differing output.
func VerifyCounterexample(a, b *Network, cex []bool) (bool, string) {
	return sweep.VerifyCounterexample(a, b, cex)
}

// OpenProofCache opens (creating if needed) the verification cache in
// dir. A corrupted journal is preserved under a .corrupt suffix and the
// cache proceeds cold; see (*ProofCache).Recovered.
func OpenProofCache(dir string) (*ProofCache, error) { return pcache.Open(dir) }

// NewCacheSession binds an open cache to a network. Pass the session as
// SweepOptions.Cache; tr (nil = none) receives cache probe/hit/miss/
// evict/revalidate-fail events.
func NewCacheSession(store *ProofCache, net *Network, tr Tracer) *CacheSession {
	return pcache.NewSession(store, net, tr)
}

// DiffNetworks returns the nodes of cur whose structural cones have no
// counterpart in base — the changed logic after an edit.
func DiffNetworks(base, cur *Network) []NodeID { return pcache.Diff(base, cur) }

// TFOMask marks the transitive fanout of the changed nodes (indexed by
// NodeID); pass it as SweepOptions.TFOMask for incremental re-verification.
func TFOMask(net *Network, changed []NodeID) []bool { return pcache.TFOMask(net, changed) }

// Benchmarks returns the paper's 42-circuit suite.
func Benchmarks() []Benchmark { return genbench.Registry() }

// LoadBenchmark generates a named benchmark (paper suite or datapath
// family) and maps it into 6-input LUTs, the preprocessing the paper
// applies to every circuit.
func LoadBenchmark(name string) (*Network, error) { return load.Benchmark(name) }

// LoadFile reads a circuit file by its extension: .blif, .bench, or AIGER
// (.aag/.aig) mapped into 6-input LUTs like a benchmark.
func LoadFile(path string) (*Network, error) { return load.File(path) }

// PutOnTop stacks copies of a circuit (outputs feeding the next copy's
// inputs), the paper's scalability transformation ("&putontop").
func PutOnTop(g *AIG, copies int) *AIG { return genbench.PutOnTop(g, copies) }
