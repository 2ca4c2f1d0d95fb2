package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// Collector aggregates the event stream in memory and renders a structured
// end-of-run Report: per-engine prove attribution, obligation balance,
// escalation histogram, counterexample-pool and pattern-generation
// statistics. It is the tracer behind the -report flag and the
// engine-attribution study in cmd/experiments, and the one place an event
// becomes a count: MetricsTracer reads its counters from an embedded
// Collector.
type Collector struct {
	mu    sync.Mutex
	start time.Time
	rep   Report // every count; Report adds the wall clock and utilization
}

// NewCollector creates an empty collector; the report's wall time runs
// from this call.
func NewCollector() *Collector {
	return &Collector{start: time.Now(), rep: Report{Workers: 1}}
}

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &c.rep
	o := &r.Obligations
	switch ev.Kind {
	case KindSweepStart:
		r.Workers = max(r.Workers, int(ev.Workers))
	case KindSweepDone:
		r.FinalCost = ev.Cost
	case KindObligation:
		o.Scheduled++
		if ev.Retries > 0 {
			o.Retried++
		}
		o.QueuePeak = max(o.QueuePeak, int(ev.Pending))
	case KindResolve:
		switch ev.Verdict {
		case VerdictEqual:
			o.Equal++
		case VerdictDiffer:
			o.Differ++
		default:
			o.Unknown++
		}
	case KindProveStart:
		// Start events carry no accounting; verdicts do.
	case KindProveVerdict:
		e := c.engine(ev.Engine)
		e.Proves++
		switch ev.Verdict {
		case VerdictEqual:
			e.Equal++
		case VerdictDiffer:
			e.Differ++
		default:
			e.Unknown++
		}
		e.Conflicts += ev.Conflicts
		e.Propagations += ev.Props
		e.Time += ev.Dur
		r.ProveTime += ev.Dur
	case KindEscalation:
		for int(ev.Rung) > len(r.Escalations) {
			r.Escalations = append(r.Escalations, 0)
		}
		if ev.Rung >= 1 {
			r.Escalations[ev.Rung-1]++
		}
	case KindBDDBlowup:
		r.BDDBlowups++
	case KindWorkerPanic:
		o.Panics++
		if ev.Retries > 0 {
			o.Requeued++
		} else {
			o.Dropped++
		}
	case KindRequeue:
		o.Requeued++
	case KindPerturb:
		r.Perturbs++
	case KindCacheProbe:
		r.Cache.Probes++
	case KindCacheHit:
		r.Cache.Hits++
	case KindCacheMiss:
		r.Cache.Misses++
	case KindCacheEvict:
		r.Cache.Evictions += int(ev.Dropped)
	case KindCacheRevalidateFail:
		r.Cache.RevalidateFails++
	case KindEnumerate:
		r.Enumerated += int(ev.Merges)
	case KindPoolFlush:
		r.Pool.Flushes++
		r.Pool.Lanes += int(ev.Lanes)
		r.Pool.Splits += int(ev.Splits)
		r.Pool.Dropped += int(ev.Dropped)
	case KindSimBatch:
		g := &r.Gen
		g.Batches++
		g.Vectors += int(ev.Vectors)
		g.Decisions += ev.Decisions
		g.Implications += ev.Implications
		g.Backtracks += ev.Backtracks
		g.Conflicts += ev.GenConflicts
		g.Time += ev.Dur
		r.FinalCost = ev.Cost
	}
}

// engine returns the named engine's entry, inserting it in name order on
// first sight so Engines stays sorted.
func (c *Collector) engine(name string) *EngineReport {
	es := c.rep.Engines
	i, found := slices.BinarySearchFunc(es, name, func(e EngineReport, name string) int {
		return strings.Compare(e.Name, name)
	})
	if !found {
		c.rep.Engines = slices.Insert(es, i, EngineReport{Name: name})
	}
	return &c.rep.Engines[i]
}

// EngineReport attributes prove work to one engine.
type EngineReport struct {
	Name         string        `json:"name"`
	Proves       int           `json:"proves"`
	Equal        int           `json:"equal"`
	Differ       int           `json:"differ"`
	Unknown      int           `json:"unknown"`
	Time         time.Duration `json:"time_ns"`
	Conflicts    int64         `json:"conflicts,omitempty"`
	Propagations int64         `json:"propagations,omitempty"`
}

// ObligationReport balances the scheduler's proof obligations:
// Scheduled == Equal + Differ + Unknown + Dropped + Requeued.
type ObligationReport struct {
	Scheduled int `json:"scheduled"`
	Equal     int `json:"equal"`
	Differ    int `json:"differ"`
	Unknown   int `json:"unknown"`
	Dropped   int `json:"dropped"`  // panics out of retries: claimed, never resolved
	Requeued  int `json:"requeued"` // returned to the queue after a panic or transient failure
	Retried   int `json:"retried"`  // requeued pairs claimed again
	Panics    int `json:"panics"`   // recovered worker panics (requeued or dropped)
	QueuePeak int `json:"queue_peak"`
}

// PoolReport summarizes counterexample-pool activity.
type PoolReport struct {
	Flushes int `json:"flushes"`
	Lanes   int `json:"lanes"`
	Splits  int `json:"splits"`
	Dropped int `json:"dropped"`
}

// CacheReport summarizes cross-run verification-memory activity. All
// fields are zero (and the report section is omitted) when no cache is
// attached.
type CacheReport struct {
	Probes          int `json:"probes"`
	Hits            int `json:"hits"`
	Misses          int `json:"misses"`
	Evictions       int `json:"evictions"`
	RevalidateFails int `json:"revalidate_fails"`
}

// GenReport summarizes the simulation runner and its vector source.
type GenReport struct {
	Batches      int           `json:"batches"`
	Vectors      int           `json:"vectors"`
	Decisions    int64         `json:"decisions"`
	Implications int64         `json:"implications"`
	Backtracks   int64         `json:"backtracks"`
	Conflicts    int64         `json:"conflicts"`
	Time         time.Duration `json:"time_ns"`
}

// Report is the structured end-of-run summary rendered by a Collector.
type Report struct {
	Wall        time.Duration    `json:"wall_ns"`
	Workers     int              `json:"workers"`
	Obligations ObligationReport `json:"obligations"`
	// Engines is sorted by name for stable rendering.
	Engines []EngineReport `json:"engines"`
	// Escalations[i] counts pairs that reached rung i+1 of the ladder.
	Escalations []int         `json:"escalations,omitempty"`
	BDDBlowups  int           `json:"bdd_blowups,omitempty"`
	Perturbs    int           `json:"perturbs,omitempty"`
	Cache       CacheReport   `json:"cache"`
	Pool        PoolReport    `json:"pool"`
	Gen         GenReport     `json:"gen"`
	ProveTime   time.Duration `json:"prove_time_ns"`
	// Utilization is the fraction of worker wall time spent inside engine
	// Prove calls: ProveTime / (Wall * Workers). 0 when no work ran.
	Utilization float64 `json:"utilization"`
	FinalCost   int64   `json:"final_cost"`
	// Enumerated counts the members of an exact partition's classes merged
	// into their representatives without an engine call.
	Enumerated int `json:"enumerated,omitempty"`
}

// Report renders the aggregated state. It may be called repeatedly; the
// wall clock keeps running between calls.
func (c *Collector) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rep
	r.Wall = time.Since(c.start)
	r.Engines = slices.Clone(r.Engines)
	r.Escalations = slices.Clone(r.Escalations)
	if r.Wall > 0 {
		r.Utilization = float64(r.ProveTime) / (float64(r.Wall) * float64(r.Workers))
	}
	return r
}

// counters visits every counter the /metrics registry exports, one line per
// metric name. They are read from a Report, so each has exactly the meaning
// of the report field it names.
func (r *Report) counters(put func(name string, v int64)) {
	o := r.Obligations
	put("sweep.obligations", int64(o.Scheduled))
	put("sweep.resolve.equal", int64(o.Equal))
	put("sweep.resolve.differ", int64(o.Differ))
	put("sweep.resolve.unknown", int64(o.Unknown))
	put("sweep.worker_panics", int64(o.Panics))
	put("sweep.requeues", int64(o.Requeued))
	put("sweep.retried", int64(o.Retried))
	escalations := 0
	for _, n := range r.Escalations {
		escalations += n
	}
	put("sweep.escalations", int64(escalations))
	put("sweep.bdd_blowups", int64(r.BDDBlowups))
	put("chaos.perturbs", int64(r.Perturbs))
	put("pool.flushes", int64(r.Pool.Flushes))
	put("pool.lanes", int64(r.Pool.Lanes))
	put("pool.splits", int64(r.Pool.Splits))
	put("pool.dropped", int64(r.Pool.Dropped))
	put("sim.batches", int64(r.Gen.Batches))
	put("sim.vectors", int64(r.Gen.Vectors))
	put("gen.decisions", r.Gen.Decisions)
	put("gen.implications", r.Gen.Implications)
	put("gen.backtracks", r.Gen.Backtracks)
	put("gen.conflicts", r.Gen.Conflicts)
	put("cache.probes", int64(r.Cache.Probes))
	put("cache.hits", int64(r.Cache.Hits))
	put("cache.misses", int64(r.Cache.Misses))
	put("cache.evictions", int64(r.Cache.Evictions))
	put("cache.revalidate_fails", int64(r.Cache.RevalidateFails))
	if r.Enumerated > 0 {
		// Like the per-engine rows below, present only once a run has
		// enumerated a merge.
		put("sweep.enumerated", int64(r.Enumerated))
	}
	var conflicts, props int64
	for _, e := range r.Engines {
		put("prove."+e.Name+".total", int64(e.Proves))
		put("prove."+e.Name+".equal", int64(e.Equal))
		put("prove."+e.Name+".differ", int64(e.Differ))
		put("prove."+e.Name+".unknown", int64(e.Unknown))
		conflicts += e.Conflicts
		props += e.Propagations
	}
	put("sat.conflicts", conflicts)
	put("sat.propagations", props)
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Format renders the report as a human-readable attribution table.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall %v  workers %d  prove time %v  utilization %.1f%%\n",
		r.Wall.Round(time.Microsecond), r.Workers,
		r.ProveTime.Round(time.Microsecond), 100*r.Utilization)
	o := r.Obligations
	fmt.Fprintf(&b, "obligations: %d scheduled = %d equal + %d differ + %d unknown + %d dropped + %d requeued (queue peak %d)\n",
		o.Scheduled, o.Equal, o.Differ, o.Unknown, o.Dropped, o.Requeued, o.QueuePeak)
	if o.Panics > 0 || o.Retried > 0 {
		fmt.Fprintf(&b, "degradation: %d worker panics, %d requeued, %d retried\n",
			o.Panics, o.Requeued, o.Retried)
	}
	if r.Perturbs > 0 {
		fmt.Fprintf(&b, "chaos: %d perturbations injected\n", r.Perturbs)
	}
	if r.Enumerated > 0 {
		fmt.Fprintf(&b, "enumerated: %d pairs merged by exhaustive simulation, no engine call\n", r.Enumerated)
	}
	if r.Cache.Probes > 0 || r.Cache.Evictions > 0 {
		fmt.Fprintf(&b, "cache: %d probes = %d hits + %d misses (%d revalidation failures, %d evictions)\n",
			r.Cache.Probes, r.Cache.Hits, r.Cache.Misses,
			r.Cache.RevalidateFails, r.Cache.Evictions)
	}
	if len(r.Engines) > 0 {
		fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %12s %12s\n",
			"engine", "proves", "equal", "differ", "unknown", "time", "conflicts")
		for _, e := range r.Engines {
			fmt.Fprintf(&b, "%-10s %8d %8d %8d %8d %12v %12d\n",
				e.Name, e.Proves, e.Equal, e.Differ, e.Unknown,
				e.Time.Round(time.Microsecond), e.Conflicts)
		}
	}
	if len(r.Escalations) > 0 {
		fmt.Fprintf(&b, "escalation rungs:")
		for i, n := range r.Escalations {
			fmt.Fprintf(&b, " r%d=%d", i+1, n)
		}
		fmt.Fprintln(&b)
	}
	if r.BDDBlowups > 0 {
		fmt.Fprintf(&b, "bdd blowups: %d\n", r.BDDBlowups)
	}
	if r.Pool.Flushes > 0 {
		fmt.Fprintf(&b, "cex pool: %d flushes, %d lanes, %d splits, %d dropped\n",
			r.Pool.Flushes, r.Pool.Lanes, r.Pool.Splits, r.Pool.Dropped)
	}
	if r.Gen.Batches > 0 {
		fmt.Fprintf(&b, "generation: %d batches, %d vectors, %d decisions, %d implications, %d backtracks, %d conflicts in %v\n",
			r.Gen.Batches, r.Gen.Vectors, r.Gen.Decisions, r.Gen.Implications,
			r.Gen.Backtracks, r.Gen.Conflicts, r.Gen.Time.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "final cost: %d\n", r.FinalCost)
	return b.String()
}
