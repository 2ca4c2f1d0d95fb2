package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Collector aggregates the event stream in memory and renders a structured
// end-of-run Report: per-engine prove attribution, obligation balance,
// escalation histogram, counterexample-pool and pattern-generation
// statistics. It is the tracer behind the -report flag and the
// engine-attribution study in cmd/experiments.
type Collector struct {
	mu      sync.Mutex
	start   time.Time
	workers int
	engines map[string]*EngineReport

	scheduled int
	equal     int
	differ    int
	unknown   int
	panics    int
	dropped   int // panic events with no retry left: claimed, never resolved
	requeued  int // requeue events + panic events with a retry left
	retried   int // obligation claims that were retries of requeued pairs
	perturbs  int // chaos perturbation actions fired

	cache CacheReport // verification-memory activity
	word  WordReport  // word-level structure and proving activity

	escalations []int // count per rung (index rung-1)
	bddBlowups  int

	pool PoolReport
	gen  GenReport

	proveTime time.Duration
	cost      int64
	queuePeak int32
}

// NewCollector creates an empty collector; the report's wall time runs
// from this call.
func NewCollector() *Collector {
	return &Collector{start: time.Now(), engines: make(map[string]*EngineReport)}
}

// Emit implements Tracer.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Kind {
	case KindSweepStart:
		if int(ev.Workers) > c.workers {
			c.workers = int(ev.Workers)
		}
	case KindSweepDone:
		c.cost = ev.Cost
	case KindObligation:
		c.scheduled++
		if ev.Retries > 0 {
			c.retried++
		}
		if ev.Pending > c.queuePeak {
			c.queuePeak = ev.Pending
		}
	case KindResolve:
		switch ev.Verdict {
		case VerdictEqual:
			c.equal++
		case VerdictDiffer:
			c.differ++
		default:
			c.unknown++
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
		c.proveTime += ev.Dur
	case KindEscalation:
		for int(ev.Rung) > len(c.escalations) {
			c.escalations = append(c.escalations, 0)
		}
		if ev.Rung >= 1 {
			c.escalations[ev.Rung-1]++
		}
	case KindBDDBlowup:
		c.bddBlowups++
	case KindWorkerPanic:
		c.panics++
		if ev.Retries > 0 {
			c.requeued++
		} else {
			c.dropped++
		}
	case KindRequeue:
		c.requeued++
	case KindPerturb:
		c.perturbs++
	case KindCacheProbe:
		c.cache.Probes++
	case KindCacheHit:
		c.cache.Hits++
	case KindCacheMiss:
		c.cache.Misses++
	case KindCacheEvict:
		c.cache.Evictions += int(ev.Dropped)
	case KindCacheRevalidateFail:
		c.cache.RevalidateFails++
	case KindWordDetect:
		c.word.Detections++
		c.word.Words += int(ev.Words)
		c.word.Bits += int(ev.WordBits)
	case KindWordFrontier:
		c.word.FrontierProofs++
	case KindPolicyPick:
		c.word.PolicyPicks++
	case KindPoolFlush:
		c.pool.Flushes++
		c.pool.Lanes += int(ev.Lanes)
		c.pool.Splits += int(ev.Splits)
		c.pool.Dropped += int(ev.Dropped)
	case KindSimBatch:
		c.gen.Batches++
		c.gen.Vectors += int(ev.Vectors)
		c.gen.Decisions += ev.Decisions
		c.gen.Implications += ev.Implications
		c.gen.Backtracks += ev.Backtracks
		c.gen.Conflicts += ev.GenConflicts
		c.gen.Time += ev.Dur
		c.cost = ev.Cost
	}
}

func (c *Collector) engine(name string) *EngineReport {
	e := c.engines[name]
	if e == nil {
		e = &EngineReport{Name: name}
		c.engines[name] = e
	}
	return e
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

// WordReport summarizes word-level structure detection, frontier proving,
// and adaptive policy activity. All fields are zero (and the report section
// is omitted) when the word stage is off.
type WordReport struct {
	Detections     int `json:"detections"`
	Words          int `json:"words"`
	Bits           int `json:"bits"`
	FrontierProofs int `json:"frontier_proofs"`
	PolicyPicks    int `json:"policy_picks"`
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
	Word        WordReport    `json:"word"`
	Pool        PoolReport    `json:"pool"`
	Gen         GenReport     `json:"gen"`
	ProveTime   time.Duration `json:"prove_time_ns"`
	// Utilization is the fraction of worker wall time spent inside engine
	// Prove calls: ProveTime / (Wall * Workers). 0 when no work ran.
	Utilization float64 `json:"utilization"`
	FinalCost   int64   `json:"final_cost"`
}

// Report renders the aggregated state. It may be called repeatedly; the
// wall clock keeps running between calls.
func (c *Collector) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Wall:    time.Since(c.start),
		Workers: c.workers,
		Obligations: ObligationReport{
			Scheduled: c.scheduled,
			Equal:     c.equal,
			Differ:    c.differ,
			Unknown:   c.unknown,
			Dropped:   c.dropped,
			Requeued:  c.requeued,
			Retried:   c.retried,
			Panics:    c.panics,
			QueuePeak: int(c.queuePeak),
		},
		Escalations: append([]int(nil), c.escalations...),
		BDDBlowups:  c.bddBlowups,
		Perturbs:    c.perturbs,
		Cache:       c.cache,
		Word:        c.word,
		Pool:        c.pool,
		Gen:         c.gen,
		ProveTime:   c.proveTime,
		FinalCost:   c.cost,
	}
	if r.Workers < 1 {
		r.Workers = 1
	}
	names := make([]string, 0, len(c.engines))
	for name := range c.engines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Engines = append(r.Engines, *c.engines[name])
	}
	if r.Wall > 0 {
		r.Utilization = float64(r.ProveTime) / (float64(r.Wall) * float64(r.Workers))
	}
	return r
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
	if r.Cache.Probes > 0 || r.Cache.Evictions > 0 {
		fmt.Fprintf(&b, "cache: %d probes = %d hits + %d misses (%d revalidation failures, %d evictions)\n",
			r.Cache.Probes, r.Cache.Hits, r.Cache.Misses,
			r.Cache.RevalidateFails, r.Cache.Evictions)
	}
	if r.Word.Detections > 0 {
		fmt.Fprintf(&b, "word: %d candidate words (%d bits), %d frontier proofs, %d policy picks\n",
			r.Word.Words, r.Word.Bits, r.Word.FrontierProofs, r.Word.PolicyPicks)
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
