package obs

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("a")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Errorf("counter = %d, want 7", c.Value())
	}
	if m.Counter("a") != c {
		t.Error("Counter does not return the same handle for the same name")
	}
	g := m.Gauge("b")
	g.Set(5)
	g.Max(3)
	if g.Value() != 5 {
		t.Errorf("Max lowered the gauge to %d", g.Value())
	}
	g.Max(9)
	if g.Value() != 9 {
		t.Errorf("Max did not raise the gauge: %d", g.Value())
	}
}

// TestHistogramInvariant: every observation lands in exactly one bucket, so
// the bucket counts always sum to Count and the recorded sum matches.
func TestHistogramInvariant(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(1))
	var want int64
	const n = 10000
	for i := 0; i < n; i++ {
		d := time.Duration(rng.Int63n(int64(10 * time.Second)))
		want += d.Nanoseconds()
		h.Observe(d)
	}
	h.Observe(-time.Second) // clamped to 0
	h.Observe(1 << 62)      // clamped into the last bucket
	if h.Count() != n+2 {
		t.Errorf("Count = %d, want %d", h.Count(), n+2)
	}
	var sum int64
	for _, b := range h.Buckets() {
		sum += b
	}
	if sum != h.Count() {
		t.Errorf("sum(buckets) = %d, Count = %d", sum, h.Count())
	}
	if got := h.Sum().Nanoseconds() - (1 << 62); got != want {
		t.Errorf("Sum = %d, want %d", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Counter("calls").Add(12)
	m.Gauge("depth").Set(3)
	h := m.Histogram("lat")
	h.Observe(100 * time.Nanosecond) // 64 < 100 <= 128 -> le_128ns
	snap := m.Snapshot()
	if snap["calls"] != 12 || snap["depth"] != 3 {
		t.Errorf("snapshot scalars wrong: %v", snap)
	}
	if snap["lat.count"] != 1 || snap["lat.sum_ns"] != 100 {
		t.Errorf("snapshot histogram aggregates wrong: %v", snap)
	}
	if snap["lat.le_128ns"] != 1 {
		t.Errorf("snapshot bucket wrong: %v", snap)
	}
}

func TestServe(t *testing.T) {
	m := NewMetrics()
	m.Counter("hits").Add(5)
	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]int64
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if snap["hits"] != 5 {
		t.Errorf("/metrics hits = %d, want 5", snap["hits"])
	}

	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status %d", resp.StatusCode)
	}

	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
}

func TestPublishIdempotent(t *testing.T) {
	m := NewMetrics()
	m.Publish("obs_test_metrics")
	m.Publish("obs_test_metrics") // expvar panics on duplicates; must be a no-op
}

// TestMetricsTracerAggregates drives the tracer with a known stream and
// checks the registry totals, including per-engine attribution.
func TestMetricsTracerAggregates(t *testing.T) {
	m := NewMetrics()
	tr := NewMetricsTracer(m)
	tr.Emit(Event{Kind: KindObligation, Pending: 8})
	tr.Emit(Event{Kind: KindProveVerdict, Engine: "sat", Verdict: VerdictEqual,
		Conflicts: 10, Props: 100, Dur: time.Millisecond})
	tr.Emit(Event{Kind: KindProveVerdict, Engine: "sat", Verdict: VerdictDiffer,
		Conflicts: 5, Props: 50, Dur: time.Millisecond})
	tr.Emit(Event{Kind: KindProveVerdict, Engine: "bdd", Verdict: VerdictUnknown})
	tr.Emit(Event{Kind: KindResolve, Verdict: VerdictEqual})
	tr.Emit(Event{Kind: KindResolve, Verdict: VerdictDiffer})
	tr.Emit(Event{Kind: KindEscalation, Rung: 1})
	tr.Emit(Event{Kind: KindBDDBlowup})
	tr.Emit(Event{Kind: KindWorkerPanic})                        // terminal: drop, no requeue
	tr.Emit(Event{Kind: KindWorkerPanic, Retries: 1})            // panic-requeue
	tr.Emit(Event{Kind: KindRequeue, Retries: 1})                // transient-failure requeue
	tr.Emit(Event{Kind: KindObligation, Pending: 3, Retries: 1}) // the retry claim
	tr.Emit(Event{Kind: KindPerturb, Point: "verdict", Act: "fail"})
	tr.Emit(Event{Kind: KindPoolFlush, Lanes: 6, Splits: 2, Dropped: 1, Dur: time.Microsecond})
	tr.Emit(Event{Kind: KindSimBatch, Vectors: 4, Decisions: 7, Implications: 30,
		Backtracks: 1, GenConflicts: 2, Dur: time.Microsecond})

	snap := m.Snapshot()
	want := map[string]int64{
		"sweep.obligations":    2,
		"sweep.queue_depth":    3,
		"sweep.resolve.equal":  1,
		"sweep.resolve.differ": 1,
		"sweep.escalations":    1,
		"sweep.bdd_blowups":    1,
		"sweep.worker_panics":  2,
		"sweep.requeues":       2,
		"sweep.retried":        1,
		"chaos.perturbs":       1,
		"pool.flushes":         1,
		"pool.lanes":           6,
		"pool.splits":          2,
		"pool.dropped":         1,
		"sim.batches":          1,
		"sim.vectors":          4,
		"gen.decisions":        7,
		"gen.implications":     30,
		"gen.backtracks":       1,
		"gen.conflicts":        2,
		"sat.conflicts":        15,
		"sat.propagations":     150,
		"prove.sat.total":      2,
		"prove.sat.equal":      1,
		"prove.sat.differ":     1,
		"prove.bdd.total":      1,
		"prove.bdd.unknown":    1,
		"prove.sat.time.count": 2,
		"prove.bdd.time.count": 1,
	}
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %d, want %d", name, snap[name], v)
		}
	}
}

// TestMetricsTracerConcurrent hammers one tracer from many goroutines while
// another reads the registry; run under -race this is the goroutine-safety
// proof for the metrics path, emission and snapshot both.
func TestMetricsTracerConcurrent(t *testing.T) {
	m := NewMetrics()
	tr := NewMetricsTracer(m)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				if snap := m.Snapshot(); snap["sweep.obligations"] > workers*per {
					t.Errorf("mid-run obligations = %d, above the %d emitted", snap["sweep.obligations"], workers*per)
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(Event{Kind: KindObligation, Worker: int32(w), Pending: int32(i)})
				tr.Emit(Event{Kind: KindProveVerdict, Engine: "sat",
					Verdict: VerdictEqual, Conflicts: 1, Dur: time.Microsecond})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-read
	snap := m.Snapshot()
	if snap["sweep.obligations"] != workers*per {
		t.Errorf("obligations = %d, want %d", snap["sweep.obligations"], workers*per)
	}
	if snap["prove.sat.total"] != workers*per || snap["sat.conflicts"] != workers*per {
		t.Errorf("per-engine totals wrong: %v", snap)
	}
	if snap["prove.sat.time.count"] != workers*per {
		t.Errorf("histogram count = %d, want %d", snap["prove.sat.time.count"], workers*per)
	}
}
