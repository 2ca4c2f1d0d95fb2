package sweepd

import (
	"context"
	"fmt"
	"time"

	"simgen/internal/pcache"
	"simgen/internal/sweep"
)

// Execute runs one job spec to completion under ctx and returns its
// Result. opts are the job-scoped sweep options (normally
// spec.sweepOptions() with the job's tracer attached, possibly adjusted by
// a Config.JobHook). The flow is cmd/sweep's because both call the same
// sweep.Refine and sweep.New (or sweep.CECContext): a workers=1
// deterministic job traces byte-identical to a direct CLI run on the same
// seed.
//
// cache, when not nil, is the persistent verification cache: sweep and
// simgen jobs replay its stored patterns before guided refinement, probe
// its proofs from the scheduler, and record what they learn for later
// jobs. It may be shared across concurrent jobs (the store is internally
// locked). CEC jobs ignore it: they sweep a combined two-circuit network
// whose node keys would collide with the single-circuit runs' records
// only by construction, not intent.
func Execute(ctx context.Context, spec JobSpec, loader *Loader, opts sweep.Options, cache *pcache.Store) (*Result, error) {
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

// executeSweep handles the sweep and simgen kinds: both run Refine, the
// simulation half of the flow; sweep jobs then drain the obligation
// scheduler.
func executeSweep(ctx context.Context, spec JobSpec, loader *Loader, opts sweep.Options, cache *pcache.Store) (*Result, error) {
	net, err := loader.Load(spec.Circuit)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		opts.Cache = pcache.NewSession(cache, net, opts.Tracer)
	}
	ref, err := sweep.Refine(ctx, net, spec.flowOptions(opts))
	if err != nil {
		return nil, err
	}
	res := &Result{
		Circuit:     net.Stats().String(),
		InitialCost: ref.InitialCost,
		GuidedCost:  ref.Run.Classes.Cost(),
		FinalCost:   ref.Run.Classes.Cost(),
	}
	if spec.Kind == KindSimGen {
		res.Verdict = "refined"
		return res, nil
	}

	sr := sweep.New(net, ref.Run.Classes, opts).RunParallelContext(ctx, spec.Workers)
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
	cr, err := sweep.CECContext(ctx, a, b, spec.flowOptions(opts))
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
