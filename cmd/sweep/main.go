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

// config is the command's settings: the flow's, bound straight to their
// flags, and where to write the reduced network, keep the proof cache and
// find the base revision.
type config struct {
	flow     simgen.CECOptions
	reduce   string
	cacheDir string
	basePath string
}

func main() {
	var (
		benchmark = flag.String("benchmark", "", "sweep a named built-in benchmark")
		cfg       = config{flow: simgen.DefaultCECOptions()}
		opts      = &cfg.flow
	)
	flag.StringVar(&opts.Method, "method", opts.Method, "guided simulation before sweeping: simgen|ai+dc+mffc|ai+dc|ai+rd|si+rd|revs|rands|none")
	flag.IntVar(&opts.GuidedIterations, "iterations", opts.GuidedIterations, "maximum guided iterations (generation stops earlier once the cost is flat for 3)")
	flag.IntVar(&opts.RandomRounds, "random-rounds", opts.RandomRounds, "initial random rounds of 64 vectors (0 = 1 for a sweep, 2 for CEC)")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	flag.Int64Var(&opts.Sweep.ConflictBudget, "conflict-budget", opts.Sweep.ConflictBudget, "SAT conflict budget per call (0 = unlimited)")
	flag.Int64Var(&opts.Sweep.PropagationBudget, "propagation-budget", opts.Sweep.PropagationBudget, "SAT propagation budget per call (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for the whole run (0 = none)")
	flag.IntVar(&opts.Sweep.EscalationFactor, "escalate", opts.Sweep.EscalationFactor, "budget multiplier per escalation rung")
	flag.IntVar(&opts.Sweep.MaxEscalations, "max-escalations", opts.Sweep.MaxEscalations, "escalation rungs for budget-exhausted pairs (0 = drop immediately)")
	flag.BoolVar(&opts.Sweep.BDDFallback, "bdd-fallback", opts.Sweep.BDDFallback, "retry pairs that exhaust the final rung on the BDD engine")
	flag.IntVar(&opts.Sweep.BDDNodeLimit, "bdd-nodes", opts.Sweep.BDDNodeLimit, "BDD fallback node limit (0 = manager default)")
	flag.IntVar(&opts.Workers, "workers", opts.Workers, "parallel sweep workers (0 = GOMAXPROCS)")
	engine := flag.String("engine", opts.Sweep.Engine.String(), "verification engine: sat|bdd|portfolio|word")
	flag.BoolVar(&opts.Sweep.WordStage, "word", opts.Sweep.WordStage, "insert the word-level proving stage into the portfolio (structure detection + frontier learning)")
	flag.StringVar(&cfg.reduce, "reduce", "", "write the swept (merged) network to this BLIF file")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "persistent verification cache directory (verdicts and simulation patterns)")
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
	opts.Sweep.Tracer = obsSetup.Tracer
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

	if opts.Sweep.Engine, err = simgen.ParseSweepEngine(*engine); err == nil {
		err = opts.Check()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		exit(exitUsage)
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	ctx := context.Background()
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "sweep: -timeout must be positive, got %v\n", *timeout)
		exit(exitUsage)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
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
	opts := cfg.flow

	// Persistent verification cache: revalidated verdicts answer the
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
		opts.Sweep.Cache = simgen.NewCacheSession(store, net, opts.Sweep.Tracer)
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
	if opts.Method != "none" {
		fmt.Printf("guided: %d of %d iterations (%s)\n", len(ref.Guided), opts.GuidedIterations, ref.Run.Stopped())
	}
	fmt.Printf("after guided simulation (%s): cost %d\n", opts.Method, ref.Run.Classes.Cost())

	sw := simgen.NewSweeper(net, ref.Run.Classes, opts.Sweep)
	res := sw.RunParallelContext(ctx, opts.Workers)
	fmt.Printf("%s sweeping: %s\n", opts.Sweep.Engine, res)
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
		eq, neq, pats, evicted := store.Counts()
		fmt.Printf("cache: %d equal, %d differ, %d patterns (%d evicted)\n",
			eq, neq, pats, evicted)
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
	res, err := simgen.CECContext(ctx, a, b, cfg.flow)
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
