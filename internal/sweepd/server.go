package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"simgen/internal/obs"
	"simgen/internal/pcache"
	"simgen/internal/sweep"
)

// Admission errors; the HTTP layer maps them to 429 and 503.
var (
	// ErrQueueFull means the bounded job queue is at capacity.
	ErrQueueFull = errors.New("sweepd: job queue full")
	// ErrDraining means the server stopped admitting jobs for shutdown.
	ErrDraining = errors.New("sweepd: server draining")
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the pool size: how many jobs run concurrently (default 2).
	// Each job may itself run Spec.Workers sweep workers.
	Workers int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrQueueFull (HTTP 429). Default 64.
	QueueDepth int
	// StoreCap bounds retained finished jobs (default 1024; oldest
	// terminal jobs are evicted first).
	StoreCap int
	// DefaultTimeout applies to jobs that set no timeout_ms (0 = none);
	// MaxTimeout clamps every job (0 = no cap).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DataDir roots JobSpec path circuits; "" disables them.
	DataDir string
	// CacheDir, when set, opens one persistent verification cache
	// (internal/pcache) shared by every sweep and simgen job the process
	// runs: verdicts and simulation patterns learned by one job
	// accelerate the next. An unopenable cache is logged and skipped;
	// the service runs uncached.
	CacheDir string
	// Metrics receives service and engine metrics (created when nil).
	Metrics *obs.Metrics
	// JobHook, when set, is called as each job starts; it may adjust the
	// job's sweep options (e.g. attach a chaos injector) and return an
	// extra tracer to fan the job's events into (nil for none). Test
	// instrumentation hook.
	JobHook func(id string, spec JobSpec, opts *sweep.Options) obs.Tracer
}

// Server is the resident verification service: a bounded job queue drained
// by a fixed worker pool, with per-job observability stacks fanning into
// one shared metrics registry.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	mt      *obs.MetricsTracer
	loader  *Loader
	store   *store

	// cache is the process-wide verification cache (nil when disabled or
	// unopenable); cacheOnce closes it exactly once after a full drain.
	cache     *pcache.Store
	cacheOnce sync.Once

	// admitMu guards queue sends against Drain's close(queue): submitters
	// hold it shared, Drain exclusively. draining is checked under it.
	admitMu  sync.RWMutex
	draining bool
	queue    chan *Job
	wg       sync.WaitGroup

	running atomic.Int64

	mAccepted  *obs.Counter
	mRejected  *obs.Counter
	mInvalid   *obs.Counter
	mCompleted *obs.Counter
	mFailed    *obs.Counter
	mCanceled  *obs.Counter
	gDepth     *obs.Gauge
	gPeak      *obs.Gauge
	gRunning   *obs.Gauge
	hAdmission *obs.Histogram
	hQueueWait *obs.Histogram
	hLatency   *obs.Histogram
}

// New builds a server and starts its worker pool. Stop it with Drain.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.StoreCap == 0 {
		cfg.StoreCap = 1024
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		mt:      obs.NewMetricsTracer(m),
		loader:  NewLoader(cfg.DataDir, m),
		store:   newStore(cfg.StoreCap),
		queue:   make(chan *Job, cfg.QueueDepth),

		mAccepted:  m.Counter("sweepd.jobs.accepted"),
		mRejected:  m.Counter("sweepd.jobs.rejected"),
		mInvalid:   m.Counter("sweepd.jobs.invalid"),
		mCompleted: m.Counter("sweepd.jobs.completed"),
		mFailed:    m.Counter("sweepd.jobs.failed"),
		mCanceled:  m.Counter("sweepd.jobs.canceled"),
		gDepth:     m.Gauge("sweepd.queue.depth"),
		gPeak:      m.Gauge("sweepd.queue.peak"),
		gRunning:   m.Gauge("sweepd.jobs.running"),
		hAdmission: m.Histogram("sweepd.admission.latency"),
		hQueueWait: m.Histogram("sweepd.job.queue_wait"),
		hLatency:   m.Histogram("sweepd.job.latency"),
	}
	if cfg.CacheDir != "" {
		pc, err := pcache.Open(cfg.CacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweepd: verification cache disabled: %v\n", err)
		} else {
			s.cache = pc
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Submit admits one job: it validates the spec, then either enqueues
// (returning the accepted Job) or rejects without blocking — ErrQueueFull
// when the bounded queue is at capacity, ErrDraining after Drain started.
// Any other error is a spec problem.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	t0 := time.Now()
	spec.normalize()
	if err := spec.validate(); err != nil {
		s.mInvalid.Add(1)
		return nil, err
	}
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return nil, ErrDraining
	}
	j := newJob(s.store.nextID(), spec)
	select {
	case s.queue <- j:
	default:
		s.mRejected.Add(1)
		return nil, ErrQueueFull
	}
	s.store.add(j)
	s.mAccepted.Add(1)
	depth := int64(len(s.queue))
	s.gDepth.Set(depth)
	s.gPeak.Max(depth)
	s.hAdmission.Observe(time.Since(t0))
	return j, nil
}

// Job looks up a job by ID (nil if unknown or evicted).
func (s *Server) Job(id string) *Job { return s.store.get(id) }

// Jobs snapshots every retained job in submission order.
func (s *Server) Jobs() []*Job { return s.store.list() }

// Drain stops admission and waits for every accepted job — queued and
// running — to reach a terminal state, or for ctx to expire. It is
// idempotent; no accepted job is lost.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every worker finished: compact the verification cache's journal
		// to disk. A ctx-expired drain leaves it open — workers may still
		// be writing, and the process is exiting anyway.
		var err error
		s.cacheOnce.Do(func() {
			if s.cache != nil {
				err = s.cache.Close()
			}
		})
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CancelAll requests cancellation of every non-terminal job (the impatient
// second SIGTERM); pair with Drain to stop quickly but cleanly.
func (s *Server) CancelAll() int {
	n := 0
	for _, j := range s.store.list() {
		if j.Cancel() {
			n++
		}
	}
	return n
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job with its per-job observability stack and
// wall-clock budget, recording the terminal state and service metrics.
func (s *Server) runJob(j *Job) {
	s.gDepth.Set(int64(len(s.queue)))
	s.hQueueWait.Observe(time.Since(j.submitted))

	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if d := j.Spec.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout); d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	if !j.begin(cancel) {
		// Canceled while queued; it still flows through a worker so the
		// terminal counter is bumped exactly once.
		if j.Status() == StatusCanceled {
			s.mCanceled.Add(1)
		}
		return
	}
	s.gRunning.Set(s.running.Add(1))
	defer func() { s.gRunning.Set(s.running.Add(-1)) }()

	opts := j.Spec.sweepOptions()
	tracers := j.tracers()
	tracers = append(tracers, s.mt)
	if s.cfg.JobHook != nil {
		if extra := s.cfg.JobHook(j.ID, j.Spec, &opts); extra != nil {
			tracers = append(tracers, extra)
		}
	}
	opts.Tracer = obs.Multi(tracers...)

	res, err := s.executeSafe(ctx, j, opts)
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	switch j.finish(res, errMsg) {
	case StatusDone:
		s.mCompleted.Add(1)
	case StatusFailed:
		s.mFailed.Add(1)
	case StatusCanceled:
		s.mCanceled.Add(1)
	}
	s.hLatency.Observe(time.Since(j.started))
}

// executeSafe shields the pool from a panicking job: the job fails, the
// worker survives.
func (s *Server) executeSafe(ctx context.Context, j *Job, opts sweep.Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("job panic: %v\n%s", r, debug.Stack())
		}
	}()
	return Execute(ctx, j.Spec, s.loader, opts, s.cache)
}

// JobView is the JSON shape of a job in status and list responses.
type JobView struct {
	ID      string  `json:"id"`
	Kind    string  `json:"kind"`
	Status  Status  `json:"status"`
	Error   string  `json:"error,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Trace   bool    `json:"trace,omitempty"`
	QueueMS int64   `json:"queue_ms"`
}

func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:     j.ID,
		Kind:   j.Spec.Kind,
		Status: j.status,
		Error:  j.errMsg,
		Result: j.result,
		Trace:  j.stream != nil,
	}
	switch {
	case !j.started.IsZero():
		v.QueueMS = j.started.Sub(j.submitted).Milliseconds()
	case !j.finished.IsZero(): // canceled while queued
		v.QueueMS = j.finished.Sub(j.submitted).Milliseconds()
	default:
		v.QueueMS = time.Since(j.submitted).Milliseconds()
	}
	return v
}

// Handler returns the service's HTTP API:
//
//	POST   /jobs             submit (202; 400 invalid, 429 full, 503 draining)
//	GET    /jobs             list retained jobs
//	GET    /jobs/{id}        status; ?wait=5s long-polls for completion
//	POST   /jobs/{id}/cancel cancel (DELETE /jobs/{id} is an alias)
//	GET    /jobs/{id}/trace  JSONL trace; streams live unless ?follow=0
//	GET    /jobs/{id}/report obs report (live snapshot while running)
//	GET    /healthz          liveness + drain state
//	GET    /metrics          metrics registry snapshot (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job spec: " + err.Error()})
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, j.view())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.store.list()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, views)
}

// job resolves the {id} path value, writing the 404 itself on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad wait: " + err.Error()})
			return
		}
		if d > 30*time.Second {
			d = 30 * time.Second
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.Done():
		case <-t.C:
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if j.stream == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "job submitted without trace"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if r.URL.Query().Get("follow") == "0" {
		w.Write(j.stream.Bytes()) //nolint:errcheck
		return
	}
	// Stream: replays the buffer, then follows live emission until the job
	// reaches a terminal state (which closes the stream) or the client
	// disconnects.
	j.stream.WriteTo(r.Context(), w) //nolint:errcheck
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.Report())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"draining": draining,
		"running":  s.running.Load(),
		"queued":   len(s.queue),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics)
}
