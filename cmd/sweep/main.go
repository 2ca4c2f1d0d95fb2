// Command sweep runs SAT sweeping on one circuit or combinational
// equivalence checking (CEC) between two circuits.
//
// Usage:
//
//	sweep [flags] circuit.blif          # sweep: prove/disprove node pairs
//	sweep [flags] a.blif b.blif         # CEC: compare two circuits
//	sweep [flags] -benchmark apex2      # sweep a built-in benchmark
//	sweep -cache-dir d circuit.blif     # sweep with a persistent proof cache
//	sweep -cache-dir d -base old.blif new.blif   # incremental re-sweep of an edit
//
// Exit codes: 0 success (sweep finished / circuits equivalent),
// 1 verification failure (circuits inequivalent) or runtime error,
// 2 usage error, 3 undecided (deadline or budgets exhausted; partial
// results are printed).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"simgen"
	"simgen/internal/obsflag"
	"simgen/internal/prof"
)

// Exit codes.
const (
	exitOK        = 0
	exitFail      = 1
	exitUsage     = 2
	exitUndecided = 3
)

type config struct {
	method      string
	engine      string
	engineKind  simgen.EngineKind
	reduce      string
	iterations  int
	randRounds  int
	seed        int64
	budget      int64
	propBudget  int64
	timeout     time.Duration
	escalate    int
	maxEscalate int
	bddFallback bool
	bddNodes    int
	workers     int
	wordStage   bool
	cacheDir    string
	basePath    string
	tracer      simgen.Tracer
}

func main() {
	var (
		benchmark = flag.String("benchmark", "", "sweep a named built-in benchmark")
		cfg       config
	)
	flag.StringVar(&cfg.method, "method", "simgen", "guided simulation before sweeping: simgen|ai+dc+mffc|ai+dc|ai+rd|si+rd|revs|rands|none")
	flag.IntVar(&cfg.iterations, "iterations", 20, "maximum guided iterations (generation stops earlier once the cost is flat for 3)")
	flag.IntVar(&cfg.randRounds, "random-rounds", 0, "initial random rounds of 64 vectors (0 = 1 for a sweep, 2 for CEC)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed")
	flag.Int64Var(&cfg.budget, "conflict-budget", 0, "SAT conflict budget per call (0 = unlimited)")
	flag.Int64Var(&cfg.propBudget, "propagation-budget", 0, "SAT propagation budget per call (0 = unlimited)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock deadline for the whole run (0 = none)")
	flag.IntVar(&cfg.escalate, "escalate", 4, "budget multiplier per escalation rung")
	flag.IntVar(&cfg.maxEscalate, "max-escalations", 2, "escalation rungs for budget-exhausted pairs (0 = drop immediately)")
	flag.BoolVar(&cfg.bddFallback, "bdd-fallback", false, "retry pairs that exhaust the final rung on the BDD engine")
	flag.IntVar(&cfg.bddNodes, "bdd-nodes", 1<<20, "BDD fallback node limit (0 = manager default)")
	flag.IntVar(&cfg.workers, "workers", 1, "parallel sweep workers (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.engine, "engine", "sat", "verification engine: sat|bdd|portfolio|word")
	flag.BoolVar(&cfg.wordStage, "word", false, "insert the word-level proving stage into the portfolio (structure detection + frontier learning)")
	flag.StringVar(&cfg.reduce, "reduce", "", "write the swept (merged) network to this BLIF file")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "persistent verification cache directory (proofs, clause hints, patterns)")
	flag.StringVar(&cfg.basePath, "base", "", "previous revision BLIF: sweep incrementally, scheduling only the diff's fanout (requires -cache-dir)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	obsFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(exitUsage)
	}
	obsSetup, err := obsFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		stopProf()
		os.Exit(exitUsage)
	}
	cfg.tracer = obsSetup.Tracer
	exit := func(code int) {
		if err := obsSetup.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			if code == exitOK {
				code = exitFail
			}
		}
		stopProf()
		os.Exit(code)
	}

	if kind, err := simgen.ParseSweepEngine(cfg.engine); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		exit(exitUsage)
	} else {
		cfg.engineKind = kind
	}
	if err := simgen.CheckMethod(cfg.method); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		exit(exitUsage)
	}
	if cfg.workers < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -workers must be >= 0 (0 = GOMAXPROCS), got %d\n", cfg.workers)
		exit(exitUsage)
	}
	if cfg.workers == 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.maxEscalate < 0 || cfg.bddNodes < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -max-escalations and -bdd-nodes must be >= 0, got %d and %d\n", cfg.maxEscalate, cfg.bddNodes)
		exit(exitUsage)
	}

	ctx := context.Background()
	if cfg.timeout < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -timeout must be positive, got %v\n", cfg.timeout)
		exit(exitUsage)
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	switch {
	case *benchmark != "" || flag.NArg() == 1:
		code, err := runSweep(ctx, *benchmark, flag.Args(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			exit(exitFail)
		}
		exit(code)
	case flag.NArg() == 2:
		code, err := runCEC(ctx, flag.Arg(0), flag.Arg(1), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			exit(exitFail)
		}
		exit(code)
	default:
		fmt.Fprintln(os.Stderr, "usage: sweep [flags] circuit.blif | sweep [flags] a.blif b.blif")
		exit(exitUsage)
	}
}

func load(path string) (*simgen.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return simgen.ParseBLIF(f)
}

func (c config) sweepOptions() simgen.SweepOptions {
	return simgen.SweepOptions{
		Engine:            c.engineKind,
		ConflictBudget:    c.budget,
		PropagationBudget: c.propBudget,
		EscalationFactor:  c.escalate,
		MaxEscalations:    c.maxEscalate,
		BDDFallback:       c.bddFallback,
		BDDNodeLimit:      c.bddNodes,
		WordStage:         c.wordStage,
		Tracer:            c.tracer,
	}
}

// flowOptions are the options of the whole flow: Refine, then the sweep or
// CEC.
func (c config) flowOptions() simgen.CECOptions {
	return simgen.CECOptions{
		Sweep:            c.sweepOptions(),
		RandomRounds:     c.randRounds,
		GuidedIterations: c.iterations,
		Method:           c.method,
		Seed:             c.seed,
		Workers:          c.workers,
	}
}

func runSweep(ctx context.Context, benchmark string, args []string, cfg config) (int, error) {
	var net *simgen.Network
	var err error
	if benchmark != "" {
		net, err = simgen.LoadBenchmark(benchmark)
	} else {
		net, err = load(args[0])
	}
	if err != nil {
		return exitFail, err
	}
	if cfg.basePath != "" && cfg.cacheDir == "" {
		return exitUsage, fmt.Errorf("-base requires -cache-dir")
	}
	opts := cfg.flowOptions()

	// Persistent verification cache: proofs and clause hints feed the
	// prover; recorded patterns replay before guided simulation so a warm
	// run rebuilds every split the previous run discovered.
	var store *simgen.ProofCache
	if cfg.cacheDir != "" {
		store, err = simgen.OpenProofCache(cfg.cacheDir)
		if err != nil {
			return exitFail, err
		}
		defer func() {
			if cerr := store.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "sweep: cache close: %v\n", cerr)
			}
		}()
		if store.Recovered() {
			fmt.Fprintf(os.Stderr, "sweep: cache journal was corrupt; starting cold (damaged journal kept as *.corrupt)\n")
		}
		opts.Sweep.Cache = simgen.NewCacheSession(store, net, cfg.tracer)
	}

	// Incremental mode: diff against the previous revision and restrict
	// obligation scheduling to the transitive fanout of the changed nodes;
	// everything outside the mask settles from the cache pre-pass.
	if cfg.basePath != "" {
		baseNet, err := load(cfg.basePath)
		if err != nil {
			return exitFail, err
		}
		changed := simgen.DiffNetworks(baseNet, net)
		opts.Sweep.TFOMask = simgen.TFOMask(net, changed)
		masked := 0
		for _, in := range opts.Sweep.TFOMask {
			if in {
				masked++
			}
		}
		fmt.Printf("incremental: %d changed cones, %d of %d nodes in their fanout\n",
			len(changed), masked, net.NumNodes())
	}

	ref, err := simgen.Refine(ctx, net, opts)
	if err != nil {
		return exitFail, err
	}
	fmt.Printf("circuit: %s (%s)\n", net.Name, net.Stats())
	fmt.Printf("after random simulation: cost %d\n", ref.InitialCost)
	if ref.Replayed > 0 {
		fmt.Printf("cache: replayed %d pattern batches: cost %d\n", ref.Replayed, ref.ReplayCost)
	}
	if cfg.method != "none" {
		fmt.Printf("guided: %d of %d iterations (%s)\n", len(ref.Guided), cfg.iterations, ref.Run.Stopped())
	}
	fmt.Printf("after guided simulation (%s): cost %d\n", cfg.method, ref.Run.Classes.Cost())

	sw := simgen.NewSweeper(net, ref.Run.Classes, opts.Sweep)
	res := sw.RunParallelContext(ctx, cfg.workers)
	fmt.Printf("%s sweeping: %s\n", cfg.engine, res)
	fmt.Printf("proved %d equivalences, disproved %d pairs, final cost %d\n",
		res.Proved, res.Disproved, res.FinalCost)
	code := exitOK
	if res.Incomplete {
		fmt.Printf("undecided: sweep stopped early (timed out: %v); %d candidate pairs remain\n",
			res.TimedOut, res.FinalCost)
		code = exitUndecided
	}

	if cfg.reduce != "" {
		merged := simgen.ApplySweep(net, sw.Rep)
		f, err := os.Create(cfg.reduce)
		if err != nil {
			return exitFail, err
		}
		defer f.Close()
		if err := simgen.WriteBLIF(f, merged); err != nil {
			return exitFail, err
		}
		fmt.Printf("reduced network: %s -> %s (%s)\n", net.Stats(), merged.Stats(), cfg.reduce)
	}
	if store != nil {
		eq, neq, clauses, pats, evicted := store.Counts()
		fmt.Printf("cache: %d equal, %d differ, %d clause hints, %d patterns (%d evicted)\n",
			eq, neq, clauses, pats, evicted)
	}
	return code, nil
}

func runCEC(ctx context.Context, pathA, pathB string, cfg config) (int, error) {
	a, err := load(pathA)
	if err != nil {
		return exitFail, err
	}
	b, err := load(pathB)
	if err != nil {
		return exitFail, err
	}
	res, err := simgen.CECContext(ctx, a, b, cfg.flowOptions())
	if err != nil {
		return exitFail, err
	}
	fmt.Printf("sweep: %s\n", res.Sweep)
	if res.Undecided {
		fmt.Printf("UNDECIDED (output %s unresolved; timed out: %v)\n",
			res.UndecidedPO, res.Sweep.TimedOut || ctx.Err() != nil)
		fmt.Printf("partial results: %d proved, %d disproved, %d unresolved, %d PO calls\n",
			res.Sweep.Proved, res.Sweep.Disproved, res.Sweep.Unresolved, res.POCalls)
		return exitUndecided, nil
	}
	if res.Equivalent {
		fmt.Println("EQUIVALENT")
		return exitOK, nil
	}
	fmt.Printf("NOT EQUIVALENT (output %s differs)\n", res.FailedPO)
	fmt.Printf("counterexample: %v\n", res.Counterexample)
	if ok, po := simgen.VerifyCounterexample(a, b, res.Counterexample); ok {
		fmt.Printf("counterexample verified on output %s\n", po)
	}
	return exitFail, nil
}
