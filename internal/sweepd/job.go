package sweepd

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"simgen/internal/obs"
)

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: queued -> running -> done | failed | canceled. A queued
// job canceled before a worker picks it up goes straight to canceled.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// terminal reports whether the status is final.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is one accepted verification job. All mutable fields are guarded by
// mu; Done is closed exactly once when the job reaches a terminal state.
type Job struct {
	ID   string
	Spec JobSpec

	// stream buffers the job's JSONL trace when Spec.Trace is set; it is
	// closed at terminal state so followers drain and stop.
	stream *obs.Stream
	// collector aggregates the job's report, always on (it is cheap and
	// makes GET /jobs/{id}/report unconditional).
	collector *obs.Collector

	done chan struct{}

	mu        sync.Mutex
	status    Status
	result    *Result
	errMsg    string
	canceled  bool
	cancel    context.CancelFunc
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(id string, spec JobSpec) *Job {
	j := &Job{
		ID:        id,
		Spec:      spec,
		collector: obs.NewCollector(),
		done:      make(chan struct{}),
		status:    StatusQueued,
		submitted: time.Now(),
	}
	if spec.Trace {
		j.stream = obs.NewStream(spec.Deterministic)
	}
	return j
}

// tracers returns the job's own sinks (stream + collector).
func (j *Job) tracers() []obs.Tracer {
	ts := []obs.Tracer{j.collector}
	if j.stream != nil {
		ts = append(ts, j.stream)
	}
	return ts
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the job's result and error message once terminal.
func (j *Job) Result() (*Result, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.errMsg
}

// Report renders the job's observability report (live while running).
func (j *Job) Report() obs.Report { return j.collector.Report() }

// Cancel requests cancellation: a queued job is finished immediately as
// canceled; a running job has its context canceled and finishes (with its
// partial result) as canceled. Terminal jobs are unaffected. It reports
// whether the request changed anything.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.status.terminal() || j.canceled {
		j.mu.Unlock()
		return false
	}
	j.canceled = true
	cancel := j.cancel
	queued := j.status == StatusQueued
	if queued {
		j.finishLocked(StatusCanceled, nil, "canceled before start")
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// begin transitions queued -> running and installs the context cancel
// hook; it reports false when the job was canceled while queued (the
// worker skips it).
func (j *Job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish records the terminal state. A canceled running job lands in
// StatusCanceled regardless of how execution returned, keeping any partial
// result attached.
func (j *Job) finish(res *Result, errMsg string) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := StatusDone
	switch {
	case j.canceled:
		st = StatusCanceled
	case errMsg != "":
		st = StatusFailed
	}
	j.finishLocked(st, res, errMsg)
	return st
}

// finishLocked is finish with mu held and an explicit terminal state.
func (j *Job) finishLocked(st Status, res *Result, errMsg string) {
	if j.status.terminal() {
		return
	}
	j.status = st
	j.result = res
	if st != StatusDone {
		j.errMsg = errMsg
	}
	j.finished = time.Now()
	if j.stream != nil {
		j.stream.Close()
	}
	close(j.done)
}

// store is the in-memory job registry, retaining finished jobs for polling
// (bounded by evicting the oldest terminal jobs past the cap).
type store struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	cap   int
	seq   atomic.Int64
}

func newStore(cap int) *store {
	return &store{jobs: make(map[string]*Job), cap: cap}
}

// nextID mints a process-unique job ID.
func (s *store) nextID() string {
	return "j" + strconv.FormatInt(s.seq.Add(1), 10)
}

// add registers the job, evicting the oldest terminal jobs over the cap.
func (s *store) add(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if s.cap <= 0 || len(s.jobs) <= s.cap {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if len(s.jobs) > s.cap {
			if old := s.jobs[id]; old != nil && old.Status().terminal() {
				delete(s.jobs, id)
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// get looks a job up.
func (s *store) get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// list snapshots every registered job in submission order.
func (s *store) list() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, j)
		}
	}
	return out
}
