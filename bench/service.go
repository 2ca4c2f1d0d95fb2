package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simgen/internal/fuzz"
	"simgen/internal/obs"
	"simgen/internal/sweep"
	"simgen/internal/sweepd"
)

// The service workload serves seeded sweep jobs from sweepd over loopback
// HTTP in a closed loop: each of serviceClients clients submits a job and
// long-polls it to a terminal state before submitting the next. The jobs
// are small fuzz circuits of every shape, so per-job fixed costs (JSON,
// BLIF parsing, simulator compilation, engine construction, polling)
// dominate; a change that speeds up large-circuit SAT should show nothing
// here.

// Load shape, fixed whatever the host.
const (
	serviceJobs    = 500 // distinct jobs one pass submits
	serviceClients = 2
	serviceWorkers = 2
	jobTimeoutMS   = 10000
	pollWait       = "30s"
)

type serviceJob struct {
	body []byte // JSON job spec
	io   string // the circuit's PI and PO counts, as the job reports them
}

type service struct {
	jobs   []serviceJob
	srv    *sweepd.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	// In traced runs the server's job hook hands every job a batchTimer
	// while tracing is on, keyed by job id.
	tracing atomic.Bool
	traces  sync.Map
}

// setupService generates the job specs, starts sweepd on a loopback port
// and warms up on the first jobs.
func setupService(cfg config) (instance, error) {
	jobs, err := serviceSpecs(cfg.seed, serviceJobs)
	if err != nil {
		return nil, err
	}
	if cfg.maxOps > 0 && cfg.maxOps < len(jobs) {
		jobs = jobs[:cfg.maxOps]
	}
	s := &service{jobs: jobs, served: make(chan error, 1)}
	var hook func(string, sweepd.JobSpec, *sweep.Options) obs.Tracer
	if cfg.traced {
		hook = s.hook
	}
	s.srv = sweepd.New(sweepd.Config{Workers: serviceWorkers, JobHook: hook})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.srv.Drain(context.Background()))
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceClients,
		MaxIdleConnsPerHost: serviceClients,
	}}
	for _, j := range s.jobs[:min(10*warmups, len(s.jobs))] {
		o := s.runJob(j)
		err := o.err
		if err == nil {
			err = checkJob(o.view, j)
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", err), s.close())
		}
	}
	return s, nil
}

// serviceSpecs draws n sweep jobs, cycling through the fuzz shapes so each
// shape gets the same share.
func serviceSpecs(seed int64, n int) ([]serviceJob, error) {
	rng := rand.New(rand.NewSource(seed))
	names := fuzz.ShapeNames()
	shapes := fuzz.Shapes()
	jobs := make([]serviceJob, n)
	for i := range jobs {
		shape := shapes[names[i%len(names)]]
		net := fuzz.Generate(rand.New(rand.NewSource(rng.Int63())), shape)
		text, err := blifText(net)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(sweepd.JobSpec{
			Kind:      sweepd.KindSweep,
			Circuit:   sweepd.CircuitRef{BLIF: string(text)},
			Seed:      rng.Int63n(1<<30) + 1,
			Workers:   1,
			TimeoutMS: jobTimeoutMS,
		})
		if err != nil {
			return nil, err
		}
		jobs[i] = serviceJob{body: body, io: fmt.Sprintf("pi=%d po=%d ", net.NumPIs(), net.NumPOs())}
	}
	return jobs, nil
}

func (s *service) hook(id string, _ sweepd.JobSpec, _ *sweep.Options) obs.Tracer {
	if !s.tracing.Load() {
		return nil
	}
	t := &jobTrace{started: time.Now()}
	s.traces.Store(id, t)
	return &t.batches
}

// jobTrace is what the server side of one traced job reports: when a
// worker started it, and its simulation batches and sweep end.
type jobTrace struct {
	started time.Time
	batches batchTimer
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), opLimit)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return errors.Join(err, s.srv.Drain(ctx))
}

func (s *service) pass(p *pass) {
	s.tracing.Store(p.tr != nil)
	outs := make([]jobOutcome, len(s.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.jobs) {
					return
				}
				outs[i] = s.runJob(s.jobs[i])
			}
		}()
	}
	wg.Wait()
	p.loadWall = time.Since(start)
	for i, o := range outs {
		s.account(p, fmt.Sprintf("job %d", i), o, s.jobs[i])
	}
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	t0, posted, done time.Time
	view             sweepd.JobView
	rejected         bool
	err              error
}

// runJob submits one job and long-polls it to a terminal state.
func (s *service) runJob(j serviceJob) (o jobOutcome) {
	ctx, cancel := context.WithTimeout(context.Background(), opLimit)
	defer cancel()
	o.t0 = time.Now()
	var v sweepd.JobView
	code, err := s.do(ctx, http.MethodPost, "/jobs", j.body, &v)
	o.posted = time.Now()
	switch {
	case err != nil:
		o.err = err
	case code == http.StatusTooManyRequests:
		o.rejected = true
		o.err = errors.New("rejected: queue full")
	case code != http.StatusAccepted:
		o.err = fmt.Errorf("submit: HTTP %d", code)
	}
	for o.err == nil && !terminal(v.Status) {
		code, err := s.do(ctx, http.MethodGet, "/jobs/"+v.ID+"?wait="+pollWait, nil, &v)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", code)
		}
		o.err = err
	}
	o.done = time.Now()
	o.view = v
	return o
}

func terminal(st sweepd.Status) bool {
	return st == sweepd.StatusDone || st == sweepd.StatusFailed || st == sweepd.StatusCanceled
}

// do sends one request and decodes a JSON reply into v on success.
func (s *service) do(ctx context.Context, method, path string, body []byte, v *sweepd.JobView) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// account folds one job into the pass: its latency as the op time, its
// sweep accounting, and on traced passes its spans — queue (submit until a
// worker starts it), exec (until its sweep ends, with the batches' and the
// prover's time inside) and transport (until its client has the result).
func (s *service) account(p *pass, name string, o jobOutcome, j serviceJob) {
	d := o.done.Sub(o.t0)
	p.admission += o.posted.Sub(o.t0)
	trace, traced := s.traces.LoadAndDelete(o.view.ID)
	if o.rejected {
		p.add("sweepd.rejected", 1)
	}
	if o.err != nil {
		p.record(name, d, o.err)
		return
	}
	res := o.view.Result
	if res != nil && res.Sweep != nil {
		p.addSweep(*res.Sweep)
	}
	if traced && p.tr != nil {
		t := trace.(*jobTrace)
		t.batches.mu.Lock()
		ended, gen, genDur := t.batches.sweepDone, t.batches.gen, t.batches.dur
		t.batches.mu.Unlock()
		if ended.IsZero() {
			ended = o.done
		}
		p.addGen(gen)
		root := p.tr.openOp(o.t0)
		sp := p.tr.open(root, "sweepd.queue", o.t0)
		p.tr.close(sp, t.started)
		sp = p.tr.open(root, "sweepd.exec", t.started)
		p.tr.close(sp, ended)
		p.tr.aggregate(sp, "core.gen", genDur)
		if res != nil && res.Sweep != nil {
			p.tr.aggregate(sp, "prover", res.Sweep.SATTime)
		}
		sp = p.tr.open(root, "sweepd.transport", ended)
		p.tr.close(sp, o.done)
		p.tr.close(root, o.done)
	}
	p.record(name, d, checkJob(o.view, j))
}

// checkJob fails a job that did not finish done with a complete sweep of
// the circuit it was sent: a complete sweep leaves no candidate pair, so
// its final cost is 0.
func checkJob(v sweepd.JobView, j serviceJob) error {
	res := v.Result
	switch {
	case v.Status != sweepd.StatusDone:
		return fmt.Errorf("status %s: %s", v.Status, v.Error)
	case res == nil || res.Sweep == nil:
		return errors.New("no sweep result")
	case res.Verdict != "swept" || res.Sweep.Incomplete || res.Sweep.Unresolved > 0:
		return fmt.Errorf("verdict %s, %d pairs unresolved", res.Verdict, res.Sweep.Unresolved)
	case res.FinalCost != 0:
		return fmt.Errorf("final cost %d after a complete sweep", res.FinalCost)
	case !strings.HasPrefix(res.Circuit, j.io):
		return fmt.Errorf("swept circuit %q, sent one with %q", res.Circuit, j.io)
	}
	return nil
}
