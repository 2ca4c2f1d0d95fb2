package sweepd

import (
	"context"
	"errors"
	"testing"
	"time"
)

// BenchmarkSweepdThroughput measures end-to-end service throughput — spec
// validation, admission, queueing, pool dispatch, the full sweep pipeline,
// and terminal bookkeeping — bypassing HTTP so the number tracks the
// service core, not the kernel's TCP stack. Jobs cycle through a small
// deterministic fuzz mix: tiny networks, which are enumerated, and default
// ones widened to 14 inputs, which run guided generation and the SAT sweep.
func BenchmarkSweepdThroughput(b *testing.B) {
	specs := make([]JobSpec, 8)
	for i := range specs {
		text := fuzzBLIF(b, "tiny", int64(101+i))
		if i%2 == 1 {
			text = fuzzBLIFPIs(b, "default", int64(101+i), 14)
		}
		specs[i] = JobSpec{
			Kind:    KindSweep,
			Circuit: CircuitRef{BLIF: text},
			Seed:    int64(i + 1),
		}
	}
	srv := New(Config{Workers: 4, QueueDepth: 256, StoreCap: 512})
	b.ResetTimer()

	jobs := make([]*Job, 0, b.N)
	for i := 0; i < b.N; i++ {
		for {
			j, err := srv.Submit(specs[i%len(specs)])
			if err == nil {
				jobs = append(jobs, j)
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				b.Fatal(err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for _, j := range jobs {
		<-j.Done()
	}
	b.StopTimer()

	for i, j := range jobs {
		if st := j.Status(); st != StatusDone {
			_, msg := j.Result()
			b.Fatalf("job %d: status %s (%s)", i, st, msg)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		b.Fatal(err)
	}
}
