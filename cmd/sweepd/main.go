// Command sweepd serves the verification pipeline as a resident HTTP/JSON
// service: clients POST CEC, sweep, and simgen jobs, the service runs them
// on a bounded worker pool with per-job budgets, and exposes status
// polling, streamed JSONL traces, per-job reports, and aggregate metrics.
//
// Admission is backpressured: a full queue answers 429 with Retry-After,
// and SIGTERM drains gracefully — no accepted job is lost. A second signal
// cancels running jobs and drains what remains.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"simgen/internal/sweepd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8344", "listen address")
		workers      = flag.Int("workers", 2, "job pool size (jobs running concurrently; 0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue depth; a full queue answers 429")
		storeCap     = flag.Int("store-cap", 1024, "finished jobs retained for polling")
		timeout      = flag.Duration("timeout", 0, "default per-job wall-clock budget (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 0, "cap on per-job budgets (0 = no cap)")
		dataDir      = flag.String("data", "", "root directory for path circuit refs (empty disables them)")
		cacheDir     = flag.String("cache-dir", "", "persistent verification cache shared by all sweep/simgen jobs (empty disables)")
		drainBudget  = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on the first signal")
		cancelBudget = flag.Duration("cancel-timeout", 5*time.Second, "drain budget after canceling jobs")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	srv := sweepd.New(sweepd.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		StoreCap:       *storeCap,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DataDir:        *dataDir,
		CacheDir:       *cacheDir,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // Serve returns on Shutdown.
	fmt.Printf("sweepd: listening on %s (workers=%d queue=%d)\n", ln.Addr(), *workers, *queue)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("sweepd: draining (budget %v; signal again to cancel running jobs)\n", *drainBudget)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drainBudget)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	select {
	case err = <-drained:
	case <-sig:
		fmt.Printf("sweepd: canceling %d jobs\n", srv.CancelAll())
		err = <-drained
	}
	if err != nil {
		// Budget expired: cancel what is still running and give the pool a
		// short window to wind down.
		srv.CancelAll()
		ctx, cancel := context.WithTimeout(context.Background(), *cancelBudget)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hs.Shutdown(ctx) //nolint:errcheck
	fmt.Println("sweepd: drained, bye")
	return nil
}
