// Command simgen runs guided simulation-pattern generation on a circuit:
// it partitions the candidate equivalence classes with random simulation,
// refines them with the selected strategy, and reports the cost (worst-case
// SAT calls, Eq. 5 of the paper) per iteration. Generation runs at most
// -iterations iterations and stops once the cost has been flat for 3.
//
// Usage:
//
//	simgen [flags] circuit.blif
//	simgen [flags] -benchmark apex2
//
// Exit codes: 0 success, 1 error, 2 usage error, 3 the -timeout deadline
// cut generation or the final sweep short (partial results are still
// printed).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"simgen"
	"simgen/internal/obsflag"
	"simgen/internal/prof"
)

func main() {
	opts := simgen.DefaultCECOptions()
	flag.StringVar(&opts.Method, "method", opts.Method, "vector source: simgen|ai+dc+mffc|ai+dc|ai+rd|si+rd|revs|rands")
	flag.IntVar(&opts.GuidedIterations, "iterations", opts.GuidedIterations, "maximum guided iterations (generation stops earlier once the cost is flat for 3)")
	flag.IntVar(&opts.RandomRounds, "random-rounds", opts.RandomRounds, "initial random rounds of 64 vectors (0 = 1)")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	flag.BoolVar(&opts.Sweep.WordStage, "word", opts.Sweep.WordStage, "insert the word-level proving stage into the final sweep's portfolio")
	var (
		benchmark  = flag.String("benchmark", "", "run a named built-in benchmark instead of a BLIF file")
		batch      = flag.Int("batch", 1, "vectors per iteration")
		list       = flag.Bool("list", false, "list built-in benchmarks and exit")
		engine     = flag.String("engine", "none", "sweep the refined classes afterwards: none|sat|bdd|portfolio|word")
		dump       = flag.String("dump-patterns", "", "write all generated vectors to this pattern file")
		cacheDir   = flag.String("cache-dir", "", "persistent verification cache: replay stored patterns first, record generated ones, and feed proofs to the final sweep")
		replay     = flag.String("replay", "", "replay vectors from a pattern file instead of generating")
		timeout    = flag.Duration("timeout", 0, "wall-clock deadline for generation (0 = none)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	obsFlags := obsflag.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
		os.Exit(2)
	}
	obsSetup, err := obsFlags.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
		stopProf()
		os.Exit(2)
	}
	// -dump-patterns is created up front, like -trace and -report, so an
	// unwritable path is a usage error before the run.
	var dumpFile *os.File
	if *dump != "" {
		if dumpFile, err = os.Create(*dump); err != nil {
			fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
			obsSetup.Close()
			stopProf()
			os.Exit(2)
		}
	}
	// exit tears down the pattern dump, verification cache and
	// observability stack (writing the journal compaction and -report
	// file) and profiler before leaving; os.Exit skips deferred calls.
	var cacheStore *simgen.ProofCache
	exit := func(code int) {
		if dumpFile != nil {
			dumpFile.Close()
		}
		if cacheStore != nil {
			if err := cacheStore.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "simgen: cache close: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}
		if err := obsSetup.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		stopProf()
		os.Exit(code)
	}

	ctx := context.Background()
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "simgen: -timeout must be positive, got %v\n", *timeout)
		exit(2)
	}
	// The flow's settings and the final sweep's engine are checked before
	// any generation runs.
	err = opts.Check()
	if opts.Method == "none" {
		err = fmt.Errorf("-method none generates nothing")
	}
	if err == nil && *engine != "none" {
		opts.Sweep.Engine, err = simgen.ParseSweepEngine(*engine)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
		exit(2)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, b := range simgen.Benchmarks() {
			fmt.Printf("%-10s %s\n", b.Name, b.Suite)
		}
		exit(0)
	}

	net, err := loadCircuit(*benchmark, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
		exit(2)
	}

	run := simgen.NewRunner(net, opts.RandomRounds, opts.Seed)
	run.BatchSize = *batch
	run.SetTracer(obsSetup.Tracer)
	fmt.Printf("circuit: %s (%s)\n", net.Name, net.Stats())
	fmt.Printf("initial classes: %d, cost: %d\n", run.Classes.NumClasses(), run.Classes.Cost())

	var sess *simgen.CacheSession
	if *cacheDir != "" {
		cacheStore, err = simgen.OpenProofCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
			exit(1)
		}
		if cacheStore.Recovered() {
			fmt.Fprintln(os.Stderr, "simgen: cache journal was corrupt; starting cold (damaged journal kept as *.corrupt)")
		}
		sess = simgen.NewCacheSession(cacheStore, net, obsSetup.Tracer)
		if batches := sess.Replay(ctx, run); batches > 0 {
			fmt.Printf("cache: replayed %d pattern batches: cost %d\n", batches, run.Classes.Cost())
		}
	}

	if *replay != "" {
		if err := replayPatterns(net, run, *replay); err != nil {
			fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
			exit(1)
		}
		exit(0)
	}

	src := simgen.NewSource(net, opts.Method, opts.Seed)
	// Every batch the driver generates, including one the deadline cut
	// short, goes to -dump-patterns and to the cache session (scored by
	// the classes it split).
	var dumped [][]bool
	run.OnIteration = func(_ simgen.IterationStat, batch [][]bool, split int) {
		if dumpFile != nil {
			dumped = append(dumped, batch...)
		}
		if sess != nil {
			sess.RecordPatterns(batch, split)
		}
	}
	// flushDump writes the recorded vectors (including a partial run cut
	// short by -timeout) to the -dump-patterns file.
	flushDump := func() {
		if dumpFile == nil {
			return
		}
		f := dumpFile
		dumpFile = nil // exit must not close it again
		err := simgen.WritePatterns(f, dumped)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "simgen: %v\n", err)
			exit(1)
		}
		fmt.Printf("wrote %d patterns to %s\n", len(dumped), *dump)
	}
	stats := run.RunContext(ctx, src, opts.GuidedIterations)
	for _, st := range stats {
		fmt.Printf("iter %3d  cost %6d  vectors %3d  elapsed %v\n",
			st.Iteration, st.Cost, st.Vectors, st.Elapsed)
	}
	fmt.Printf("guided: %d of %d iterations (%s)\n", len(stats), opts.GuidedIterations, run.Stopped())
	if len(stats) < opts.GuidedIterations && ctx.Err() != nil {
		fmt.Printf("timeout after %d/%d iterations; partial cost: %d (%s)\n",
			len(stats), opts.GuidedIterations, run.Classes.Cost(), src.Name())
		flushDump()
		exit(3)
	}
	fmt.Printf("final cost: %d (%s)\n", run.Classes.Cost(), src.Name())
	flushDump()
	if *engine == "none" {
		exit(0)
	}

	// The final sweep settles the refined classes with the selected engine
	// on the flow's default ladder: the per-iteration cost column above is
	// exactly the worst-case number of proof obligations it discharges.
	opts.Sweep.Tracer = obsSetup.Tracer
	if sess != nil {
		opts.Sweep.Cache = sess
	}
	res := simgen.NewSweeper(net, run.Classes, opts.Sweep).RunContext(ctx)
	fmt.Printf("%s sweep: %s\n", *engine, res)
	fmt.Printf("proved %d equivalences, disproved %d pairs, final cost %d\n",
		res.Proved, res.Disproved, res.FinalCost)
	if res.Incomplete {
		exit(3)
	}
	exit(0)
}

// replayPatterns refines the classes with vectors from a pattern file.
func replayPatterns(net *simgen.Network, run *simgen.Runner, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	vectors, err := simgen.ReadPatterns(f, net.NumPIs())
	if err != nil {
		return err
	}
	src := &fixedSource{vectors: vectors}
	for i := 0; len(src.vectors) > 0; i++ {
		st := run.Step(src, i)
		fmt.Printf("iter %3d  cost %6d  vectors %3d  elapsed %v\n",
			st.Iteration, st.Cost, st.Vectors, st.Elapsed)
	}
	fmt.Printf("final cost after replay: %d\n", run.Classes.Cost())
	return nil
}

// fixedSource feeds a pre-recorded vector list batch by batch.
type fixedSource struct{ vectors [][]bool }

func (f *fixedSource) Name() string { return "replay" }

func (f *fixedSource) NextBatch(_ *simgen.Classes, max int) [][]bool {
	n := max
	if n > len(f.vectors) {
		n = len(f.vectors)
	}
	out := f.vectors[:n]
	f.vectors = f.vectors[n:]
	return out
}

func loadCircuit(benchmark string, args []string) (*simgen.Network, error) {
	if benchmark != "" {
		return simgen.LoadBenchmark(benchmark)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("need a BLIF file or -benchmark name")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return simgen.ParseBLIF(f)
}
