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
// the registry is race-clean under any worker count. The pipeline's event
// counts are not handles: the registry reads them from the Collectors its
// MetricsTracers fold into.
type Metrics struct {
	mu      sync.Mutex
	counts  map[string]*Counter
	gauges  map[string]*Gauge
	hists   map[string]*Histogram
	reports []*Collector
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
// <name>.le_<bound> entry per non-empty bucket. Report counters of
// several MetricsTracers on one registry add up.
func (m *Metrics) Snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counts)+len(m.gauges)+4*len(m.hists))
	for name, c := range m.counts {
		out[name] = c.Value()
	}
	for _, c := range m.reports {
		rep := c.Report()
		rep.counters(func(name string, v int64) { out[name] += v })
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

// MetricsTracer is a Collector plus what a Report lacks: per-engine prove
// latency, pool-flush and sim-batch latency histograms, and the live
// sweep.queue_depth gauge. Its counts are the embedded Collector's, read
// by the registry at Snapshot time, so /metrics and -report count every
// event the same way by construction.
type MetricsTracer struct {
	*Collector

	m          *Metrics
	queueDepth *Gauge
	flushTime  *Histogram
	batchTime  *Histogram

	mu        sync.Mutex
	proveTime map[string]*Histogram
}

// NewMetricsTracer creates a tracer updating m.
func NewMetricsTracer(m *Metrics) *MetricsTracer {
	t := &MetricsTracer{
		Collector:  NewCollector(),
		m:          m,
		queueDepth: m.Gauge("sweep.queue_depth"),
		flushTime:  m.Histogram("pool.flush_time"),
		batchTime:  m.Histogram("sim.batch_time"),
		proveTime:  make(map[string]*Histogram),
	}
	m.mu.Lock()
	m.reports = append(m.reports, t.Collector)
	m.mu.Unlock()
	return t
}

// engineTime returns the named engine's prove-latency histogram, resolving
// it once per engine.
func (t *MetricsTracer) engineTime(name string) *Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.proveTime[name]
	if h == nil {
		h = t.m.Histogram("prove." + name + ".time")
		t.proveTime[name] = h
	}
	return h
}

// Emit implements Tracer.
func (t *MetricsTracer) Emit(ev Event) {
	t.Collector.Emit(ev)
	switch ev.Kind {
	case KindObligation:
		t.queueDepth.Set(int64(ev.Pending))
	case KindProveVerdict:
		t.engineTime(ev.Engine).Observe(ev.Dur)
	case KindPoolFlush:
		t.flushTime.Observe(ev.Dur)
	case KindSimBatch:
		t.batchTime.Observe(ev.Dur)
	}
}
