package sweepd

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// decodeBody decodes and closes a response body.
func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestLoadUnderCapacity is the in-repo load smoke: a paced burst well
// under the pool's capacity must see zero backpressure, zero lost jobs,
// and admission latency inside the SLO. The p99 bound is generous — it
// gates "admission is queue insertion, not job execution", not absolute
// machine speed.
func TestLoadUnderCapacity(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	stats, err := RunLoad(context.Background(), nil, hs.URL, LoadProfile{
		Jobs:        24,
		Concurrency: 4,
		Rate:        100,
		Seed:        7,
		Mix:         []string{"tiny", "default"},
		TimeoutMS:   30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 || stats.Rejected != 0 || stats.Unavailable != 0 {
		t.Fatalf("under-capacity run saw backpressure or errors: %v", stats)
	}
	if stats.Accepted != 24 || stats.Done != 24 {
		t.Fatalf("dropped jobs under capacity: %v", stats)
	}
	if slo := 500 * time.Millisecond; stats.Admission.P99 > slo {
		t.Errorf("admission p99 %v above SLO %v: %v", stats.Admission.P99, slo, stats)
	}
}

// TestLoadOverCapacity pins the backpressure contract deterministically: a
// one-worker pool wedged on a SAT-hard job (voter, 31 inputs) with a
// two-slot queue must reject the first over-capacity submission with 429 +
// Retry-After, and every job accepted before that must still reach a
// terminal state — backpressure sheds load, it never loses admitted work.
func TestLoadOverCapacity(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	hard := JobSpec{Kind: KindSweep, Circuit: CircuitRef{Benchmark: "voter"}, Method: "none"}

	// Wedge the single worker.
	pin, code, _ := postSpec(t, hs.URL, hard)
	if code != http.StatusAccepted {
		t.Fatalf("pin: HTTP %d", code)
	}
	waitRunning(t, hs.URL, pin.ID)

	// Fill the queue exactly.
	queued := []string{pin.ID}
	for i := 0; i < 2; i++ {
		v, code, _ := postSpec(t, hs.URL, hard)
		if code != http.StatusAccepted {
			t.Fatalf("fill %d: HTTP %d", i, code)
		}
		queued = append(queued, v.ID)
	}

	// Pool busy + queue full: the next submission must bounce.
	_, code, hdr := postSpec(t, hs.URL, hard)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over capacity: want 429, got %d", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", ra)
	}

	// Rejections must be visible in the service metrics.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Release everything; each accepted job must reach a terminal state.
	for _, id := range queued {
		r, err := http.Post(hs.URL+"/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	for _, id := range queued {
		v := waitJob(t, hs.URL, id)
		if !v.Status.terminal() {
			t.Errorf("job %s not terminal after cancel: %s", id, v.Status)
		}
	}
}

// waitRunning polls until the job leaves the queue.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		decodeBody(t, resp, &v)
		if v.Status == StatusRunning {
			return
		}
		if v.Status.terminal() {
			t.Fatalf("job %s finished early: %s", id, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}
