package sweepd

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"simgen/internal/chaos"
	"simgen/internal/obs"
	"simgen/internal/sweep"
)

// chaosHook returns a Config.JobHook attaching a fresh seeded injector and
// per-job recorder to every job, plus the recorder registry.
func chaosHook(prof chaos.Profile) (func(string, JobSpec, *sweep.Options) obs.Tracer, func(id string) *obs.Recorder) {
	var mu sync.Mutex
	recs := map[string]*obs.Recorder{}
	hook := func(id string, spec JobSpec, opts *sweep.Options) obs.Tracer {
		rec := &obs.Recorder{}
		mu.Lock()
		recs[id] = rec
		// Seed per job off the job sequence so reruns are reproducible but
		// jobs explore different interleavings.
		opts.Chaos = chaos.NewSchedule(int64(len(recs))*977+13, prof)
		mu.Unlock()
		return rec
	}
	get := func(id string) *obs.Recorder {
		mu.Lock()
		defer mu.Unlock()
		return recs[id]
	}
	return hook, get
}

// checkJobEventBalance asserts the scheduler's conservation law on one
// job's event stream: every claimed obligation is accounted for by exactly
// one resolve, worker panic, or requeue, and the Result's degradation
// counters match the stream. Mirrors the fuzz interleaving gate.
func checkJobEventBalance(t *testing.T, id string, rec *obs.Recorder, res *sweep.Result) {
	t.Helper()
	if rec == nil {
		t.Fatalf("%s: no recorder attached", id)
	}
	if res == nil {
		t.Fatalf("%s: no sweep result", id)
	}
	obligations := rec.Filter(obs.KindObligation)
	if len(obligations) == 0 {
		t.Errorf("%s: no obligation scheduled, so the schedule went untested", id)
	}
	resolves := len(rec.Filter(obs.KindResolve))
	panics := rec.Filter(obs.KindWorkerPanic)
	requeues := len(rec.Filter(obs.KindRequeue))
	if len(obligations) != resolves+len(panics)+requeues {
		t.Errorf("%s: %d obligations != %d resolves + %d panics + %d requeues",
			id, len(obligations), resolves, len(panics), requeues)
	}
	if res.WorkerPanics != len(panics) {
		t.Errorf("%s: result panics %d, stream %d", id, res.WorkerPanics, len(panics))
	}
	panicRequeues := 0
	for _, ev := range panics {
		if ev.Retries > 0 {
			panicRequeues++
		}
	}
	if res.Requeued != requeues+panicRequeues {
		t.Errorf("%s: result requeued %d, stream %d transient + %d panic-requeues",
			id, res.Requeued, requeues, panicRequeues)
	}
	retried := 0
	for _, ev := range obligations {
		if ev.Retries > 0 {
			retried++
		}
	}
	if res.Retried != retried {
		t.Errorf("%s: result retried %d, stream %d", id, res.Retried, retried)
	}
}

// TestJobsUnderScheduleChaos runs concurrent multi-worker jobs with
// timing-only schedule perturbation injected through the JobHook. Every
// job must keep the obligation conservation law and — because the profile
// never faults a verdict — land exactly on the sequential pipeline's cost
// accounting for the same spec. The circuits have 14 inputs, too many to
// enumerate, so their sweeps schedule obligations.
func TestJobsUnderScheduleChaos(t *testing.T) {
	hook, recOf := chaosHook(chaos.ScheduleProfile())
	_, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 8, JobHook: hook})

	specs := make([]JobSpec, 4)
	for i := range specs {
		specs[i] = JobSpec{
			Kind:    KindSweep,
			Circuit: CircuitRef{BLIF: fuzzBLIFPIs(t, "default", int64(31+i), 14)},
			Seed:    int64(2 + i),
			Workers: 4,
		}
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		view, code, _ := postSpec(t, hs.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, code)
		}
		ids[i] = view.ID
	}
	for i, spec := range specs {
		v := waitJob(t, hs.URL, ids[i])
		if v.Status != StatusDone {
			t.Fatalf("job %d: status %s (error %q)", i, v.Status, v.Error)
		}
		checkJobEventBalance(t, ids[i], recOf(ids[i]), v.Result.Sweep)

		seq := spec
		seq.Workers = 1
		want, _ := directSweep(t, seq)
		if v.Result.FinalCost != want.FinalCost ||
			v.Result.Sweep.Proved != want.Sweep.Proved ||
			v.Result.Sweep.Disproved != want.Sweep.Disproved ||
			v.Result.Sweep.Unresolved != want.Sweep.Unresolved {
			t.Errorf("job %d: chaos schedule diverged from sequential\n got %s (cost %d)\nwant %s (cost %d)",
				i, v.Result.Sweep, v.Result.FinalCost, want.Sweep, want.FinalCost)
		}
	}
}

// TestJobsUnderFaultChaos injects engine failures, slow timeouts, and
// worker panics. Jobs must still complete (degraded, never wedged), the
// requeue/retry accounting must balance, and requeues must respect
// sweep.DefaultRetryLimit. As above, the circuits have 14 inputs.
func TestJobsUnderFaultChaos(t *testing.T) {
	hook, recOf := chaosHook(chaos.FaultProfile())
	_, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 8, JobHook: hook})

	specs := make([]JobSpec, 3)
	for i := range specs {
		specs[i] = JobSpec{
			Kind:    KindSweep,
			Circuit: CircuitRef{BLIF: fuzzBLIFPIs(t, "wide", int64(61+i), 14)},
			Seed:    int64(5 + i),
			Workers: 4,
		}
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		view, code, _ := postSpec(t, hs.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, code)
		}
		ids[i] = view.ID
	}
	for i := range specs {
		v := waitJob(t, hs.URL, ids[i])
		if v.Status != StatusDone {
			t.Fatalf("job %d: status %s (error %q)", i, v.Status, v.Error)
		}
		rec := recOf(ids[i])
		checkJobEventBalance(t, ids[i], rec, v.Result.Sweep)
		// No obligation may be requeued past the limit: the scheduler
		// emits the retry count it was claimed with.
		for _, ev := range rec.Filter(obs.KindObligation) {
			if ev.Retries > sweep.DefaultRetryLimit {
				t.Errorf("job %d: obligation claimed with %d retries > limit %d", i, ev.Retries, sweep.DefaultRetryLimit)
			}
		}
	}
}

// TestDrainLosesNoAcceptedJob is the graceful-shutdown gate: every job
// accepted before Drain reaches a terminal state, Drain returns only after
// the last one, and submissions during/after the drain answer 503.
func TestDrainLosesNoAcceptedJob(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	const n = 8
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		view, code, _ := postSpec(t, hs.URL, JobSpec{
			Kind:    KindSweep,
			Circuit: CircuitRef{BLIF: fuzzBLIF(t, "tiny", int64(81+i))},
			Seed:    int64(i + 1),
		})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, code)
		}
		ids[i] = view.ID
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Drain returned: every accepted job must already be done.
	for i, id := range ids {
		j := srv.Job(id)
		if j == nil {
			t.Fatalf("job %d evicted during drain", i)
		}
		if st := j.Status(); st != StatusDone {
			t.Errorf("job %d: status %s after drain", i, st)
		}
	}

	// The service must refuse new work with 503 + Retry-After.
	_, code, hdr := postSpec(t, hs.URL, JobSpec{
		Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: want 503, got %d", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if _, err := srv.Submit(JobSpec{Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}}); err != ErrDraining {
		t.Errorf("Submit after drain: want ErrDraining, got %v", err)
	}
}
