package obs

import (
	"encoding/json"
	"expvar"
	"math/bits"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value (e.g. queue depth).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Max raises the gauge to n when n is larger (high-water marks).
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts observations with 2^(i-1) <= ns < 2^i (bucket 0 counts 0ns),
// covering sub-nanosecond to ~39 hours.
const histBuckets = 48

// Histogram is a lock-free latency histogram over power-of-two
// nanosecond buckets. The invariant sum(Buckets()) == Count() holds at
// every quiescent point (each Observe increments exactly one bucket).
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Buckets returns a snapshot of the per-bucket counts; index i holds
// observations with 2^(i-1) <= ns < 2^i.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Metrics is a registry of named counters, gauges, and latency
// histograms. Handle lookup takes the registry mutex; the handles
// themselves are atomic, so workers update shared metrics without locks —
// the registry is race-clean under any worker count.
type Metrics struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counts[name]
	if c == nil {
		c = &Counter{}
		m.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Snapshot renders every metric into a flat, sorted name->value map.
// Histograms contribute <name>.count, <name>.sum_ns, and one
// <name>.le_<bound> entry per non-empty bucket.
func (m *Metrics) Snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counts)+len(m.gauges)+4*len(m.hists))
	for name, c := range m.counts {
		out[name] = c.Value()
	}
	for name, g := range m.gauges {
		out[name] = g.Value()
	}
	for name, h := range m.hists {
		out[name+".count"] = h.Count()
		out[name+".sum_ns"] = h.Sum().Nanoseconds()
		buckets := h.Buckets()
		for i, n := range buckets {
			if n == 0 {
				continue
			}
			var bound int64 = 0
			if i > 0 {
				bound = 1 << uint(i)
			}
			out[name+".le_"+strconv.FormatInt(bound, 10)+"ns"] = n
		}
	}
	return out
}

// MarshalJSON renders the snapshot with sorted keys (encoding/json sorts
// map keys), so /metrics responses and expvar output are stable.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}

// Publish registers the registry under the given expvar name. Publishing
// the same name twice is a no-op (expvar panics on duplicates).
func (m *Metrics) Publish(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}

// Serve exposes the registry over HTTP on addr: /metrics renders the
// snapshot as JSON and /debug/vars serves the process-wide expvar page
// (including anything Published). It returns the bound address and a stop
// function; pass ":0" to pick a free port.
func (m *Metrics) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		data, err := m.MarshalJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(data)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close.
	return ln.Addr().String(), srv.Close, nil
}

// MetricsTracer folds the event stream into a Metrics registry. Handles
// for the fixed event-driven metrics are resolved once at construction;
// per-engine handles are cached on first sight, so steady-state emission
// touches only atomics.
type MetricsTracer struct {
	m *Metrics

	obligations *Counter
	resolveEq   *Counter
	resolveNeq  *Counter
	resolveUnk  *Counter
	panics      *Counter
	requeues    *Counter
	retried     *Counter
	perturbs    *Counter
	escalations *Counter
	bddBlowups  *Counter
	poolFlushes *Counter
	poolLanes   *Counter
	poolSplits  *Counter
	poolDropped *Counter
	simBatches  *Counter
	simVectors  *Counter
	genDec      *Counter
	genImpl     *Counter
	genBack     *Counter
	genConf     *Counter
	conflicts   *Counter
	props       *Counter
	cacheProbes *Counter
	cacheHits   *Counter
	cacheMisses *Counter
	cacheEvicts *Counter
	cacheReval  *Counter
	wordDetects *Counter
	wordBits    *Counter
	wordFront   *Counter
	policyPicks *Counter
	queueDepth  *Gauge
	flushTime   *Histogram
	batchTime   *Histogram

	mu      sync.Mutex
	engines map[string]*engineMetrics
}

type engineMetrics struct {
	proves  *Counter
	equal   *Counter
	differ  *Counter
	unknown *Counter
	time    *Histogram
}

// NewMetricsTracer creates a tracer updating m.
func NewMetricsTracer(m *Metrics) *MetricsTracer {
	return &MetricsTracer{
		m:           m,
		obligations: m.Counter("sweep.obligations"),
		resolveEq:   m.Counter("sweep.resolve.equal"),
		resolveNeq:  m.Counter("sweep.resolve.differ"),
		resolveUnk:  m.Counter("sweep.resolve.unknown"),
		panics:      m.Counter("sweep.worker_panics"),
		requeues:    m.Counter("sweep.requeues"),
		retried:     m.Counter("sweep.retried"),
		perturbs:    m.Counter("chaos.perturbs"),
		escalations: m.Counter("sweep.escalations"),
		bddBlowups:  m.Counter("sweep.bdd_blowups"),
		poolFlushes: m.Counter("pool.flushes"),
		poolLanes:   m.Counter("pool.lanes"),
		poolSplits:  m.Counter("pool.splits"),
		poolDropped: m.Counter("pool.dropped"),
		simBatches:  m.Counter("sim.batches"),
		simVectors:  m.Counter("sim.vectors"),
		genDec:      m.Counter("gen.decisions"),
		genImpl:     m.Counter("gen.implications"),
		genBack:     m.Counter("gen.backtracks"),
		genConf:     m.Counter("gen.conflicts"),
		conflicts:   m.Counter("sat.conflicts"),
		props:       m.Counter("sat.propagations"),
		cacheProbes: m.Counter("cache.probes"),
		cacheHits:   m.Counter("cache.hits"),
		cacheMisses: m.Counter("cache.misses"),
		cacheEvicts: m.Counter("cache.evictions"),
		cacheReval:  m.Counter("cache.revalidate_fails"),
		wordDetects: m.Counter("word.detections"),
		wordBits:    m.Counter("word.bits"),
		wordFront:   m.Counter("word.frontier_proofs"),
		policyPicks: m.Counter("word.policy_picks"),
		queueDepth:  m.Gauge("sweep.queue_depth"),
		flushTime:   m.Histogram("pool.flush_time"),
		batchTime:   m.Histogram("sim.batch_time"),
		engines:     make(map[string]*engineMetrics),
	}
}

func (t *MetricsTracer) engine(name string) *engineMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.engines[name]
	if e == nil {
		e = &engineMetrics{
			proves:  t.m.Counter("prove." + name + ".total"),
			equal:   t.m.Counter("prove." + name + ".equal"),
			differ:  t.m.Counter("prove." + name + ".differ"),
			unknown: t.m.Counter("prove." + name + ".unknown"),
			time:    t.m.Histogram("prove." + name + ".time"),
		}
		t.engines[name] = e
	}
	return e
}

// Emit implements Tracer.
func (t *MetricsTracer) Emit(ev Event) {
	switch ev.Kind {
	case KindObligation:
		t.obligations.Add(1)
		if ev.Retries > 0 {
			t.retried.Add(1)
		}
		t.queueDepth.Set(int64(ev.Pending))
	case KindResolve:
		switch ev.Verdict {
		case VerdictEqual:
			t.resolveEq.Add(1)
		case VerdictDiffer:
			t.resolveNeq.Add(1)
		default:
			t.resolveUnk.Add(1)
		}
	case KindProveVerdict:
		e := t.engine(ev.Engine)
		e.proves.Add(1)
		switch ev.Verdict {
		case VerdictEqual:
			e.equal.Add(1)
		case VerdictDiffer:
			e.differ.Add(1)
		default:
			e.unknown.Add(1)
		}
		e.time.Observe(ev.Dur)
		t.conflicts.Add(ev.Conflicts)
		t.props.Add(ev.Props)
	case KindEscalation:
		t.escalations.Add(1)
	case KindBDDBlowup:
		t.bddBlowups.Add(1)
	case KindWorkerPanic:
		t.panics.Add(1)
		if ev.Retries > 0 {
			t.requeues.Add(1)
		}
	case KindRequeue:
		t.requeues.Add(1)
	case KindPerturb:
		t.perturbs.Add(1)
	case KindCacheProbe:
		t.cacheProbes.Add(1)
	case KindCacheHit:
		t.cacheHits.Add(1)
	case KindCacheMiss:
		t.cacheMisses.Add(1)
	case KindCacheEvict:
		t.cacheEvicts.Add(int64(ev.Dropped))
	case KindCacheRevalidateFail:
		t.cacheReval.Add(1)
	case KindWordDetect:
		t.wordDetects.Add(1)
		t.wordBits.Add(int64(ev.WordBits))
	case KindWordFrontier:
		t.wordFront.Add(1)
	case KindPolicyPick:
		t.policyPicks.Add(1)
	case KindPoolFlush:
		t.poolFlushes.Add(1)
		t.poolLanes.Add(int64(ev.Lanes))
		t.poolSplits.Add(int64(ev.Splits))
		t.poolDropped.Add(int64(ev.Dropped))
		t.flushTime.Observe(ev.Dur)
	case KindSimBatch:
		t.simBatches.Add(1)
		t.simVectors.Add(int64(ev.Vectors))
		t.genDec.Add(ev.Decisions)
		t.genImpl.Add(ev.Implications)
		t.genBack.Add(ev.Backtracks)
		t.genConf.Add(ev.GenConflicts)
		t.batchTime.Observe(ev.Dur)
	}
}
