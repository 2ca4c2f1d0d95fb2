// Report-invariant property tests: the full pipeline (guided simulation +
// portfolio sweep) runs under a Collector, and the aggregated Report must
// agree with the sweep's own Result accounting exactly — the acceptance
// criterion for the -report flag.
package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"context"

	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/pcache"
	"simgen/internal/sweep"
)

const (
	reportSeed  = 42
	reportIters = 6
)

func benchNetwork(t *testing.T, name string) *network.Network {
	t.Helper()
	b, ok := genbench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// runInstrumented runs the production flow, sweep.Refine's guided
// simulation (or enumeration, at 12 inputs or fewer) and a portfolio
// sweep, on the network with the tracer attached everywhere the CLI would
// attach it. iters is the number of guided iterations the driver made (at
// most reportIters).
func runInstrumented(net *network.Network, workers int, tr obs.Tracer) (res sweep.Result, iters int) {
	opts := sweep.Options{Engine: sweep.EnginePortfolio, Tracer: tr}
	ref, err := sweep.Refine(context.Background(), net, sweep.CECOptions{Sweep: opts,
		GuidedIterations: reportIters, Method: "simgen", Seed: reportSeed})
	if err != nil {
		panic(err)
	}
	iters = len(ref.Guided)
	sw := sweep.New(net, ref.Run.Classes, opts)
	if workers > 1 {
		return sw.RunParallel(workers), iters
	}
	return sw.Run(), iters
}

func TestReportMatchesResult(t *testing.T) {
	// sin has 8 inputs: Refine enumerates it and the sweep merges every
	// class without an engine.
	for _, bench := range []string{"alu4", "log2", "sin"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", bench, workers), func(t *testing.T) {
				net := benchNetwork(t, bench)
				col := obs.NewCollector()
				res, iters := runInstrumented(net, workers, col)
				rep := col.Report()
				o := rep.Obligations

				// Obligation balance: every claimed obligation is resolved,
				// requeued, or dropped by a worker panic, never lost.
				if o.Scheduled != o.Equal+o.Differ+o.Unknown+o.Dropped+o.Requeued {
					t.Errorf("obligations unbalanced: %d scheduled != %d equal + %d differ + %d unknown + %d dropped + %d requeued",
						o.Scheduled, o.Equal, o.Differ, o.Unknown, o.Dropped, o.Requeued)
				}

				// The report's counts are the Result's counts: the two views
				// are produced independently (events vs. scheduler fields)
				// and must agree exactly.
				if o.Scheduled != res.Scheduled {
					t.Errorf("scheduled: report %d, result %d", o.Scheduled, res.Scheduled)
				}
				if o.Equal != res.Proved {
					t.Errorf("proved: report %d, result %d", o.Equal, res.Proved)
				}
				if o.Differ != res.Disproved {
					t.Errorf("disproved: report %d, result %d", o.Differ, res.Disproved)
				}
				if o.Panics != res.WorkerPanics {
					t.Errorf("panics: report %d, result %d", o.Panics, res.WorkerPanics)
				}
				if o.Requeued != res.Requeued {
					t.Errorf("requeued: report %d, result %d", o.Requeued, res.Requeued)
				}
				if o.Retried != res.Retried {
					t.Errorf("retried: report %d, result %d", o.Retried, res.Retried)
				}
				// Dropped counts terminal panics only — a subset of all
				// recovered panics (the rest requeued their pair).
				if o.Dropped > o.Panics {
					t.Errorf("dropped %d exceeds panics %d", o.Dropped, o.Panics)
				}
				// Pool-drop attribution: the report's pool counter is the
				// Result's dedicated PoolDropped field.
				if rep.Pool.Dropped != res.PoolDropped {
					t.Errorf("pool dropped: report %d, result %d", rep.Pool.Dropped, res.PoolDropped)
				}
				// Unresolved folds three sources: prove-unknown verdicts,
				// defective pairs dropped by pool flushes, and terminal panics.
				if want := o.Unknown + rep.Pool.Dropped + o.Dropped; want != res.Unresolved {
					t.Errorf("unresolved: report %d+%d+%d, result %d",
						o.Unknown, rep.Pool.Dropped, o.Dropped, res.Unresolved)
				}

				// Per-engine prove counts match the Result's engine fields.
				engines := map[string]obs.EngineReport{}
				for _, e := range rep.Engines {
					engines[e.Name] = e
				}
				if got := engines["sat"].Proves; got != res.SATCalls {
					t.Errorf("sat proves: report %d, result %d", got, res.SATCalls)
				}
				if got := engines["sim"].Proves; got != res.SimChecks {
					t.Errorf("sim proves: report %d, result %d", got, res.SimChecks)
				}
				if got := engines["bdd"].Proves; got != res.BDDChecks {
					t.Errorf("bdd proves: report %d, result %d", got, res.BDDChecks)
				}
				if got := engines["sat"].Conflicts; got != res.Conflicts {
					t.Errorf("sat conflicts: report %d, result %d", got, res.Conflicts)
				}
				if got := engines["sat"].Propagations; got != res.Propagations {
					t.Errorf("sat propagations: report %d, result %d", got, res.Propagations)
				}

				total := 0
				for _, n := range rep.Escalations {
					total += n
				}
				if total != res.Escalations {
					t.Errorf("escalations: report %v (sum %d), result %d",
						rep.Escalations, total, res.Escalations)
				}
				if rep.BDDBlowups != res.BDDBlowups {
					t.Errorf("bdd blowups: report %d, result %d", rep.BDDBlowups, res.BDDBlowups)
				}
				if rep.Pool.Flushes != res.PoolFlushes {
					t.Errorf("pool flushes: report %d, result %d", rep.Pool.Flushes, res.PoolFlushes)
				}
				if rep.Pool.Lanes != res.PoolLanes {
					t.Errorf("pool lanes: report %d, result %d", rep.Pool.Lanes, res.PoolLanes)
				}
				if rep.FinalCost != int64(res.FinalCost) {
					t.Errorf("final cost: report %d, result %d", rep.FinalCost, res.FinalCost)
				}
				if rep.Enumerated != res.Enumerated || (res.Enumerated > 0) != (net.NumPIs() <= 12) {
					t.Errorf("enumerated: report %d, result %d, on %d inputs", rep.Enumerated, res.Enumerated, net.NumPIs())
				}

				// Cache counters: the event-derived report view must agree
				// with the Result, and a cache-off run must report zero
				// cache activity everywhere (the cache is pay-for-play).
				if rep.Cache.Probes != res.CacheProbes || rep.Cache.Hits != res.CacheHits ||
					rep.Cache.Misses != res.CacheMisses || rep.Cache.RevalidateFails != res.CacheRevalFails {
					t.Errorf("cache counters: report %+v, result probes=%d hits=%d misses=%d revalfails=%d",
						rep.Cache, res.CacheProbes, res.CacheHits, res.CacheMisses, res.CacheRevalFails)
				}
				if res.CacheProbes != 0 || res.CacheHits != 0 || res.CacheMisses != 0 ||
					res.CacheRevalFails != 0 || res.CacheMerged != 0 || res.CacheSkipped != 0 ||
					rep.Cache.Evictions != 0 {
					t.Errorf("cache-off run reported cache activity: result %+v report %+v", res, rep.Cache)
				}

				// Time attribution: prove time is the same sum the sweeper
				// reports, and cannot exceed the workers' combined wall time.
				if rep.ProveTime != res.SATTime {
					t.Errorf("prove time: report %v, result %v", rep.ProveTime, res.SATTime)
				}
				for _, e := range rep.Engines {
					if e.Time < 0 || e.Time > rep.ProveTime {
						t.Errorf("engine %s time %v outside [0, %v]", e.Name, e.Time, rep.ProveTime)
					}
				}
				if budget := rep.Wall * time.Duration(rep.Workers); rep.ProveTime > budget {
					t.Errorf("prove time %v exceeds wall*workers %v", rep.ProveTime, budget)
				}
				if rep.Utilization < 0 || rep.Utilization > 1 {
					t.Errorf("utilization %v outside [0, 1]", rep.Utilization)
				}
				if rep.Workers != workers {
					t.Errorf("workers: report %d, ran %d", rep.Workers, workers)
				}

				// Generation accounting: one batch event per guided
				// iteration the driver made.
				if rep.Gen.Batches != iters {
					t.Errorf("gen batches: report %d, ran %d iterations", rep.Gen.Batches, iters)
				}
				if (rep.Gen.Implications > 0) != (iters > 0) {
					t.Errorf("guided generation reported %d implications over %d iterations", rep.Gen.Implications, iters)
				}
			})
		}
	}
}

// TestReportDegradationAccounting drives a Collector with a synthetic
// degraded stream — panic-requeues, transient-failure requeues, a terminal
// panic, chaos perturbations — and pins how the report splits them. Clean
// end-to-end runs never exercise these paths, so this is their only
// unit-level pin outside the fuzz harness.
func TestReportDegradationAccounting(t *testing.T) {
	col := obs.NewCollector()
	emit := func(ev obs.Event) { col.Emit(ev) }
	emit(obs.Event{Kind: obs.KindSweepStart, Workers: 4})
	// Pair 1: claimed, panics, requeued, retried, proven equal.
	emit(obs.Event{Kind: obs.KindObligation, A: 1, B: 2})
	emit(obs.Event{Kind: obs.KindWorkerPanic, A: 1, B: 2, Retries: 1})
	emit(obs.Event{Kind: obs.KindObligation, A: 1, B: 2, Retries: 1})
	emit(obs.Event{Kind: obs.KindResolve, A: 1, B: 2, Verdict: obs.VerdictEqual})
	// Pair 2: claimed, transient engine failure, requeued, retried, differs.
	emit(obs.Event{Kind: obs.KindObligation, A: 3, B: 4})
	emit(obs.Event{Kind: obs.KindPerturb, Point: "verdict", Act: "fail", A: 3, B: 4})
	emit(obs.Event{Kind: obs.KindRequeue, A: 3, B: 4, Retries: 1})
	emit(obs.Event{Kind: obs.KindObligation, A: 3, B: 4, Retries: 1})
	emit(obs.Event{Kind: obs.KindResolve, A: 3, B: 4, Verdict: obs.VerdictDiffer})
	// Pair 3: claimed, panics with no retry left, dropped.
	emit(obs.Event{Kind: obs.KindObligation, A: 5, B: 6})
	emit(obs.Event{Kind: obs.KindWorkerPanic, A: 5, B: 6})

	o := col.Report().Obligations
	if o.Scheduled != 5 || o.Equal != 1 || o.Differ != 1 || o.Unknown != 0 {
		t.Fatalf("resolution counts wrong: %+v", o)
	}
	if o.Panics != 2 {
		t.Errorf("panics = %d, want 2", o.Panics)
	}
	if o.Requeued != 2 {
		t.Errorf("requeued = %d, want 2 (one panic-requeue, one transient)", o.Requeued)
	}
	if o.Retried != 2 {
		t.Errorf("retried = %d, want 2", o.Retried)
	}
	if o.Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the terminal panic)", o.Dropped)
	}
	if o.Scheduled != o.Equal+o.Differ+o.Unknown+o.Dropped+o.Requeued {
		t.Errorf("balance broken: %+v", o)
	}
	if got := col.Report().Perturbs; got != 1 {
		t.Errorf("perturbs = %d, want 1", got)
	}
}

// TestReportCacheSection runs the sweep with a verification cache
// attached and pins the report's cache section against the Result's
// cache counters — the same two-views-must-agree property the rest of
// the report is held to.
func TestReportCacheSection(t *testing.T) {
	dir := t.TempDir()

	// Cold run fills the cache (uninstrumented).
	netC := benchNetwork(t, "alu4")
	runC := core.NewRunner(netC, 1, reportSeed)
	stC, err := pcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sessC := pcache.NewSession(stC, netC, nil)
	sweep.New(netC, runC.Classes, sweep.Options{Engine: sweep.EnginePortfolio, Cache: sessC}).Run()
	if err := stC.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm run under the collector, cache events included.
	netW := benchNetwork(t, "alu4")
	runW := core.NewRunner(netW, 1, reportSeed)
	stW, err := pcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stW.Close()
	col := obs.NewCollector()
	sessW := pcache.NewSession(stW, netW, col)
	sessW.Replay(context.Background(), runW)
	res := sweep.New(netW, runW.Classes, sweep.Options{
		Engine: sweep.EnginePortfolio,
		Tracer: col,
		Cache:  sessW,
	}).Run()
	rep := col.Report()

	if rep.Cache.Probes == 0 {
		t.Fatal("warm cached run reported no cache probes")
	}
	if rep.Cache.Probes != res.CacheProbes || rep.Cache.Hits != res.CacheHits ||
		rep.Cache.Misses != res.CacheMisses || rep.Cache.RevalidateFails != res.CacheRevalFails {
		t.Errorf("cache counters: report %+v, result probes=%d hits=%d misses=%d revalfails=%d",
			rep.Cache, res.CacheProbes, res.CacheHits, res.CacheMisses, res.CacheRevalFails)
	}
	if rep.Cache.Probes != rep.Cache.Hits+rep.Cache.Misses {
		t.Errorf("probe balance broken: %d probes != %d hits + %d misses",
			rep.Cache.Probes, rep.Cache.Hits, rep.Cache.Misses)
	}
}

// TestReportJSONRoundTrip: the -report JSON re-parses into an identical
// Report, so downstream consumers (cmd/experiments) can rely on the schema.
func TestReportJSONRoundTrip(t *testing.T) {
	net := benchNetwork(t, "alu4")
	col := obs.NewCollector()
	runInstrumented(net, 1, col)
	rep := col.Report()

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back obs.Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("report changed across JSON round trip:\n%+v\nvs\n%+v", rep, back)
	}
	if rep.Format() == "" {
		t.Error("Format returned an empty rendering")
	}
}
