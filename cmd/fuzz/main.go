// Command fuzz runs differential and metamorphic fuzzing campaigns against
// the sweeping stack (internal/fuzz).
//
// Each iteration generates a random LUT network, checks that exhaustive
// simulation, sequential SAT sweeping, parallel SAT sweeping, and BDD
// sweeping all agree on its equivalence classes, and that equivalence-
// preserving rewrites keep CEC verdicts EQ while single-gate mutations flip
// them to NEQ with a valid counterexample. Failures are shrunk to minimal
// circuits and written to the corpus directory as BLIF goldens.
//
// Usage:
//
//	fuzz -seed 42 -n 1000                       # full campaign, both oracles
//	fuzz -seed 42 -n 200 -shape xor-heavy       # fix a preset shape
//	fuzz -shape 'pi=6,nodes=30,po=2,fanin=3'    # or a custom shape spec
//	fuzz -n 200 -inject-unsound -corpus /tmp/c  # self-test: catch a broken sweeper
//	fuzz -datapath -n 60                        # datapath twins, word engines in the oracle
//
// Exit codes: 0 all iterations clean, 1 oracle failure found, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"simgen/internal/fuzz"
	"simgen/internal/network"
	"simgen/internal/prover"
)

const (
	exitOK    = 0
	exitFail  = 1
	exitUsage = 2
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed      = flag.Int64("seed", 1, "campaign seed; one seed reproduces the whole run")
		n         = flag.Int("n", 100, "number of circuits to generate and check")
		shapeSpec = flag.String("shape", "", "generator shape: preset name or 'pi=8,nodes=40,...' spec (default: cycle presets)")
		datapath  = flag.Bool("datapath", false,
			"datapath preset: word-structured adder/mux/shifter twins, with the word-level engines added to the differential oracle")
		shrink      = flag.Bool("shrink", true, "minimize failing circuits before reporting")
		corpus      = flag.String("corpus", "", "directory for shrunk reproducer BLIF files")
		maxFailures = flag.Int("max-failures", 1, "stop after this many failures")
		oracle      = flag.String("oracle", "both", "oracles to run: differential|metamorphic|both")
		workers     = flag.Int("workers", 4, "workers for the parallel sweeping engine")
		perturb     = flag.Bool("perturb", false,
			"run extra parallel sweeps under chaos schedules (injected yields, delays, forced flushes, spurious wakeups)")
		perturbSchedules = flag.Int("perturb-schedules", 4,
			"distinct chaos schedules per circuit when -perturb is set")
		injectUnsound = flag.Bool("inject-unsound", false,
			"self-test: skip the SAT check on one pair per sweep (the oracle must catch this)")
		listShapes = flag.Bool("list-shapes", false, "print the preset shapes and exit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "fuzz: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		return exitUsage
	}
	if *listShapes {
		for _, name := range fuzz.ShapeNames() {
			s := fuzz.Shapes()[name]
			fmt.Printf("%-10s %s\n", name, s.String())
		}
		return exitOK
	}

	opts := fuzz.CampaignOptions{
		Seed:        *seed,
		N:           *n,
		Datapath:    *datapath,
		Shrink:      *shrink,
		CorpusDir:   *corpus,
		MaxFailures: *maxFailures,
		Config:      fuzz.Config{Seed: *seed, Workers: *workers},
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *perturb {
		if *perturbSchedules < 1 {
			fmt.Fprintf(os.Stderr, "fuzz: -perturb-schedules must be >= 1, got %d\n", *perturbSchedules)
			return exitUsage
		}
		opts.Config.PerturbSchedules = *perturbSchedules
	}
	switch *oracle {
	case "differential":
		opts.Differential = true
	case "metamorphic":
		opts.Metamorphic = true
	case "both":
		opts.Differential, opts.Metamorphic = true, true
	default:
		fmt.Fprintf(os.Stderr, "fuzz: unknown -oracle %q (want differential|metamorphic|both)\n", *oracle)
		return exitUsage
	}
	if *datapath && *shapeSpec != "" {
		fmt.Fprintln(os.Stderr, "fuzz: -shape is ignored with -datapath (circuits come from the datapath preset)")
		return exitUsage
	}
	if *shapeSpec != "" {
		shape, ok := fuzz.Shapes()[*shapeSpec]
		if !ok {
			var err error
			shape, err = fuzz.ParseShape(*shapeSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fuzz: bad -shape: %v\n", err)
				return exitUsage
			}
		}
		opts.Shape = &shape
	}
	if *injectUnsound {
		// Break the sweeper on purpose: the first checked pair of every sweep
		// is assumed equivalent without a SAT call. A working differential
		// oracle must report an unsound merge or a verdict disagreement.
		fired := false
		opts.Config.ResetFault = func() { fired = false }
		opts.Config.SweepOpts.FaultHook = func(a, b network.NodeID) prover.Fault {
			if !fired {
				fired = true
				return prover.FaultAssumeEqual
			}
			return prover.FaultNone
		}
	}

	res := fuzz.RunCampaign(opts)
	fmt.Printf("fuzz: %d circuits checked, %d failure(s)\n", res.Circuits, len(res.Failures))
	for _, f := range res.Failures {
		fmt.Printf("FAILURE %s (iteration %d, seed %d, shape %s)\n  %s\n",
			f.Check, f.Iteration, f.Seed, f.Shape, f.Detail)
		if *datapath {
			fmt.Printf("  reproduce: go run ./cmd/fuzz -datapath -seed %d -n %d -oracle %s\n",
				f.Seed, f.Iteration+1, *oracle)
		} else {
			fmt.Printf("  reproduce: go run ./cmd/fuzz -seed %d -n %d -shape '%s' -oracle %s\n",
				f.Seed, f.Iteration+1, f.Shape, *oracle)
		}
		if f.CorpusPath != "" {
			fmt.Printf("  reproducer: %s\n", f.CorpusPath)
		}
	}
	if *injectUnsound {
		if len(res.Failures) == 0 {
			fmt.Fprintln(os.Stderr, "fuzz: self-test FAILED: injected unsoundness was not detected")
			return exitFail
		}
		fmt.Println("fuzz: self-test OK: injected unsoundness detected")
		return exitOK
	}
	if len(res.Failures) > 0 {
		return exitFail
	}
	return exitOK
}
