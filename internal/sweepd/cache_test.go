package sweepd

import (
	"context"
	"fmt"
	"net/http"
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

// TestStoreCapRetention runs more finished jobs than the store retains:
// the oldest terminal jobs are evicted, so Jobs() holds the last StoreCap
// of them and an evicted ID is unknown to the server and over HTTP.
func TestStoreCapRetention(t *testing.T) {
	const storeCap = 2
	srv, hs := newTestServer(t, Config{Workers: 1, StoreCap: storeCap})
	spec := JobSpec{Kind: KindSimGen, Circuit: CircuitRef{Benchmark: "alu4"}}
	var ids []string
	for seed := int64(1); seed <= 6; seed++ {
		spec.Seed = seed
		j := mustSubmit(t, srv, spec)
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	jobs := srv.Jobs()
	if len(jobs) != storeCap || jobs[0].ID != ids[4] || jobs[1].ID != ids[5] {
		got := make([]string, len(jobs))
		for i, j := range jobs {
			got[i] = j.ID
		}
		t.Fatalf("store retains %v, want the last two of %v", got, ids)
	}
	for _, id := range ids[:4] {
		if srv.Job(id) != nil {
			t.Errorf("evicted job %s still resolves", id)
		}
		resp, err := http.Get(hs.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /jobs/%s: want 404, got %d", id, resp.StatusCode)
		}
	}
}

// TestStoreKeepsLiveJobsPastCap: eviction only takes terminal jobs, so a
// store holding nothing but queued jobs keeps every one past its cap, and
// drops the oldest once they finish.
func TestStoreKeepsLiveJobsPastCap(t *testing.T) {
	st := newStore(2)
	var live []*Job
	for i := 0; i < 4; i++ {
		j := newJob(st.nextID(), JobSpec{Kind: KindSweep})
		st.add(j)
		live = append(live, j)
	}
	if n := len(st.list()); n != 4 {
		t.Fatalf("store holds %d of 4 queued jobs past cap 2", n)
	}
	for _, j := range live {
		j.finish(&Result{}, "")
	}
	st.add(newJob(st.nextID(), JobSpec{Kind: KindSweep}))
	jobs := st.list()
	if len(jobs) != 2 || jobs[0] != live[3] {
		t.Fatalf("store holds %d jobs once they finished, want the newest finished one and the queued one", len(jobs))
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
