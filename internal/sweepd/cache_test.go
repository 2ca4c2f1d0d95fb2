package sweepd

import (
	"context"
	"fmt"
	"testing"
	"time"

	"simgen/internal/core"
	"simgen/internal/pcache"
	"simgen/internal/sim"
)

// waitDone blocks until the job is terminal, failing the test on timeout.
func waitDone(t *testing.T, j *Job) *Result {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	res, errMsg := j.Result()
	if errMsg != "" {
		t.Fatalf("job %s failed: %s", j.ID, errMsg)
	}
	if res == nil {
		t.Fatalf("job %s finished without a result", j.ID)
	}
	return res
}

// TestSharedCacheAcrossJobs runs the same sweep job twice against a server
// holding one process-wide verification cache: the second job must settle
// every obligation from the first job's recorded proofs and patterns — zero
// SAT and BDD prover calls — with identical verdict counts.
func TestSharedCacheAcrossJobs(t *testing.T) {
	srv := New(Config{Workers: 1, CacheDir: t.TempDir()})
	defer srv.Drain(context.Background())

	spec := JobSpec{
		Kind:    KindSweep,
		Circuit: CircuitRef{Benchmark: "cps"},
		Method:  "none",
		Seed:    11,
	}
	j1, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := waitDone(t, j1)
	if cold.Sweep == nil || cold.Sweep.Proved == 0 {
		t.Fatalf("cold job proved nothing: %+v", cold)
	}

	j2, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := waitDone(t, j2)
	if warm.Memoized {
		t.Fatal("memoization is off; result must come from a fresh execution")
	}
	if warm.Sweep == nil {
		t.Fatal("warm job carries no sweep result")
	}
	if warm.Sweep.SATCalls != 0 || warm.Sweep.BDDChecks != 0 {
		t.Fatalf("warm job not free of prover calls: SAT=%d BDD=%d (hits=%d misses=%d)",
			warm.Sweep.SATCalls, warm.Sweep.BDDChecks, warm.Sweep.CacheHits, warm.Sweep.CacheMisses)
	}
	if warm.Sweep.CacheHits == 0 {
		t.Fatal("warm job hit nothing in the shared cache")
	}
	if warm.Sweep.Proved != cold.Sweep.Proved {
		t.Fatalf("warm Proved=%d, cold Proved=%d", warm.Sweep.Proved, cold.Sweep.Proved)
	}
}

// TestJobMemoization submits an identical spec twice with Memo on: the
// second job's result is served from the memo without execution, and a job
// with a different spec is not.
func TestJobMemoization(t *testing.T) {
	srv := New(Config{Workers: 1, Memo: true})
	defer srv.Drain(context.Background())

	spec := JobSpec{
		Kind:    KindSweep,
		Circuit: CircuitRef{Benchmark: "alu4"},
		Seed:    5,
	}
	first := waitDone(t, mustSubmit(t, srv, spec))
	if first.Memoized {
		t.Fatal("first execution cannot be a memo hit")
	}
	second := waitDone(t, mustSubmit(t, srv, spec))
	if !second.Memoized {
		t.Fatal("identical respec did not hit the memo")
	}
	if second.Verdict != first.Verdict || second.FinalCost != first.FinalCost {
		t.Fatalf("memoized result diverges: %+v vs %+v", second, first)
	}

	other := spec
	other.Seed = 6
	third := waitDone(t, mustSubmit(t, srv, other))
	if third.Memoized {
		t.Fatal("different seed must not hit the memo")
	}

	// Traced jobs bypass the memo: their event stream must be generated.
	traced := spec
	traced.Trace = true
	fourth := waitDone(t, mustSubmit(t, srv, traced))
	if fourth.Memoized {
		t.Fatal("traced job must not be memoized")
	}
}

func mustSubmit(t *testing.T, srv *Server, spec JobSpec) *Job {
	t.Helper()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// lastBatchSource keeps the batch its generator returned last.
type lastBatchSource struct {
	gen  *core.Generator
	last [][]bool
}

func (s *lastBatchSource) Name() string { return s.gen.Name() }

func (s *lastBatchSource) NextBatch(classes *sim.Classes, max int) [][]bool {
	s.last = s.gen.NextBatch(classes, max)
	return s.last
}

// TestGuidedHookRecordsDriverBatches runs a cached simgen job on pdc (the
// guided half of cmd/sweep's pipeline) and checks that the cache holds
// exactly the batches the guided driver simulated, each pattern scored
// with the number of classes its batch split. The expectation is rebuilt
// by stepping a second runner through the same generator stream up to the
// driver's stagnation stop.
func TestGuidedHookRecordsDriverBatches(t *testing.T) {
	spec := JobSpec{Kind: KindSimGen, Circuit: CircuitRef{Benchmark: "pdc"}}
	spec.normalize()
	loader := NewLoader("", nil)
	store, err := pcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	res, err := ExecuteCached(context.Background(), spec, loader, spec.sweepOptions(), store)
	if err != nil {
		t.Fatal(err)
	}

	net, err := loader.Load(spec.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	run := core.NewRunner(net, spec.RandRounds, spec.Seed)
	src := &lastBatchSource{gen: core.NewGenerator(net, core.StrategySimGen, spec.Seed+1)}
	want := map[string]int{} // vector -> best split score, as the store keeps it
	scored, flat, cost, iters := 0, 0, run.Classes.Cost(), 0
	for ; iters < spec.Iterations && flat < 3; iters++ {
		before := run.Classes.NumClasses()
		st := run.Step(src, iters)
		split := run.Classes.NumClasses() - before
		for _, v := range src.last {
			key := fmt.Sprint(v)
			if sc, ok := want[key]; !ok || split > sc {
				want[key] = split
			}
		}
		if split > 0 {
			scored++
		}
		if st.Cost < cost {
			flat = 0
		} else {
			flat++
		}
		cost = st.Cost
	}
	if res.GuidedCost != cost {
		t.Fatalf("job guided cost %d, stepped stream %d after %d iterations", res.GuidedCost, cost, iters)
	}
	if scored == 0 {
		t.Fatal("no batch split a class; the scores are not exercised")
	}
	got := store.Patterns(net.NumPIs())
	if len(got) != len(want) {
		t.Fatalf("cache holds %d patterns, the driver simulated %d distinct vectors", len(got), len(want))
	}
	for _, p := range got {
		if sc, ok := want[fmt.Sprint(p.Bits)]; !ok || sc != p.Score {
			t.Fatalf("pattern scored %d in the cache, want %d (simulated: %v)", p.Score, sc, ok)
		}
	}
}
