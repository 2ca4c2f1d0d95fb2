package sweepd

import (
	"context"
	"fmt"
	"time"

	"simgen/internal/core"
	"simgen/internal/network"
	"simgen/internal/pcache"
	"simgen/internal/sweep"
)

// Execute runs one job spec to completion under ctx and returns its
// Result. opts are the job-scoped sweep options (normally
// spec.sweepOptions() with the job's tracer attached, possibly adjusted by
// a Config.JobHook). The pipeline is exactly cmd/sweep's: random rounds
// seed the classes, the guided source refines them, the obligation
// scheduler sweeps — so a workers=1 deterministic job traces byte-identical
// to a direct CLI run on the same seed, which the e2e parity suite pins.
func Execute(ctx context.Context, spec JobSpec, loader *Loader, opts sweep.Options) (*Result, error) {
	return ExecuteCached(ctx, spec, loader, opts, nil)
}

// ExecuteCached is Execute with a persistent verification cache: sweep and
// simgen jobs replay its stored patterns before guided refinement, probe
// its proofs from the scheduler, and record what they learn for later
// jobs. cache may be shared across concurrent jobs (the store is
// internally locked); nil degrades to Execute. CEC jobs ignore the cache:
// they sweep a combined two-circuit network whose node keys would collide
// with the single-circuit runs' records only by construction, not intent.
func ExecuteCached(ctx context.Context, spec JobSpec, loader *Loader, opts sweep.Options, cache *pcache.Store) (*Result, error) {
	start := time.Now()
	res, err := execute(ctx, spec, loader, opts, cache)
	if res != nil {
		res.Kind = spec.Kind
		res.ElapsedMS = time.Since(start).Milliseconds()
	}
	return res, err
}

func execute(ctx context.Context, spec JobSpec, loader *Loader, opts sweep.Options, cache *pcache.Store) (*Result, error) {
	switch spec.Kind {
	case KindCEC:
		return executeCEC(ctx, spec, loader, opts)
	case KindSweep, KindSimGen:
		return executeSweep(ctx, spec, loader, opts, cache)
	default:
		return nil, fmt.Errorf("sweepd: unknown job kind %q", spec.Kind)
	}
}

// guidedSource builds the job's vector source; nil means no guided
// refinement.
func guidedSource(net *network.Network, spec JobSpec) core.VectorSource {
	if spec.Iterations <= 0 {
		return nil
	}
	switch spec.Method {
	case "revs":
		return core.NewReverse(net, spec.Seed+1)
	case "none":
		return nil
	default: // "simgen"
		return core.NewGenerator(net, core.StrategySimGen, spec.Seed+1)
	}
}

// executeSweep handles the sweep and simgen kinds: both run the simulation
// front half; sweep jobs then drain the obligation scheduler.
func executeSweep(ctx context.Context, spec JobSpec, loader *Loader, opts sweep.Options, cache *pcache.Store) (*Result, error) {
	net, err := loader.Load(spec.Circuit)
	if err != nil {
		return nil, err
	}
	res := &Result{Circuit: net.Stats().String()}

	var sess *pcache.Session
	if cache != nil {
		sess = pcache.NewSession(cache, net, opts.Tracer)
	}
	run := core.NewRunner(net, spec.RandRounds, spec.Seed)
	run.SetTracer(opts.Tracer)
	res.InitialCost = run.Classes.Cost()
	if sess != nil {
		sess.Replay(ctx, run)
	}
	if src := guidedSource(net, spec); src != nil {
		if sess != nil {
			// Record each generated batch, scored by the class splits it
			// produced, so later jobs on the same circuit replay the
			// strongest vectors first.
			run.OnIteration = func(_ core.IterationStat, batch [][]bool, split int) {
				sess.RecordPatterns(batch, split)
			}
		}
		run.RunContext(ctx, src, spec.Iterations)
	}
	res.GuidedCost = run.Classes.Cost()
	res.FinalCost = res.GuidedCost

	if spec.Kind == KindSimGen {
		res.Verdict = "refined"
		return res, nil
	}

	if sess != nil {
		opts.Cache = sess
	}
	sw := sweep.New(net, run.Classes, opts)
	sr := sw.RunParallelContext(ctx, spec.Workers)
	res.Sweep = &sr
	res.FinalCost = sr.FinalCost
	if sr.Incomplete {
		res.Verdict = "undecided"
	} else {
		res.Verdict = "swept"
	}
	return res, nil
}

func executeCEC(ctx context.Context, spec JobSpec, loader *Loader, opts sweep.Options) (*Result, error) {
	a, err := loader.Load(spec.Circuit)
	if err != nil {
		return nil, fmt.Errorf("circuit: %w", err)
	}
	b, err := loader.Load(spec.CircuitB)
	if err != nil {
		return nil, fmt.Errorf("circuit_b: %w", err)
	}
	iters := spec.Iterations
	if spec.Method == "none" {
		iters = 0
	}
	cr, err := sweep.CECContext(ctx, a, b, sweep.CECOptions{
		Sweep:            opts,
		RandomRounds:     spec.RandRounds,
		GuidedIterations: iters,
		Method:           spec.Method,
		Seed:             spec.Seed,
		Workers:          spec.Workers,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Circuit:        fmt.Sprintf("%s vs %s", a.Stats(), b.Stats()),
		FinalCost:      cr.Sweep.FinalCost,
		Sweep:          &cr.Sweep,
		Equivalent:     cr.Equivalent,
		FailedPO:       cr.FailedPO,
		UndecidedPO:    cr.UndecidedPO,
		Counterexample: cr.Counterexample,
		POCalls:        cr.POCalls,
	}
	switch {
	case cr.Undecided:
		res.Verdict = "undecided"
	case cr.Equivalent:
		res.Verdict = "equivalent"
	default:
		res.Verdict = "not_equivalent"
	}
	return res, nil
}
