// Package obs is the observability layer of the sweeping pipeline: a
// lightweight, allocation-conscious event-tracing and metrics substrate.
//
// Producers (the sweep scheduler, the prover engines, the simulation
// runner) emit typed Events through a Tracer. The default tracer is Nop,
// which costs one dynamic dispatch and nothing else — the hot paths stay
// allocation-free, which TestNopTracerZeroAlloc and the committed
// BenchmarkTracerOverhead baseline guard. Concrete tracers ship in this
// package:
//
//   - JSONL streams every event as one JSON object per line (the -trace
//     flag of cmd/sweep and cmd/simgen). In Deterministic mode wall-clock
//     fields are suppressed, making the stream byte-stable for a fixed
//     seed and workers=1 — the foundation of the golden-trace regression
//     tests under testdata/traces.
//   - Collector aggregates events in memory and renders a structured
//     end-of-run Report (the -report flag): per-engine prove counts and
//     time, escalation histogram, obligation balance, pool and
//     generation statistics. Its Emit is the only place an event
//     becomes a count.
//   - MetricsTracer is a Collector plus latency histograms and a
//     queue-depth gauge in a Metrics registry, exported via expvar and
//     the optional -metrics-addr HTTP endpoint. The registry reads the
//     counters from the Collector's Report, under the metric names
//     Report.counters lists.
//   - Recorder keeps the raw event slice for tests (e.g. the
//     order-insensitive sequential-vs-parallel resolve parity check).
//
// Tracers must be goroutine-safe: parallel sweep workers emit
// concurrently.
//
// The package deliberately depends on nothing else in this repository so
// every layer (core, prover, sweep, cmd) can import it.
package obs

import (
	"sync"
	"time"
)

// Kind discriminates the event types of the sweeping pipeline.
type Kind uint8

// Event kinds. The zero Kind is invalid so an accidentally zero Event is
// detectable.
const (
	// KindSweepStart opens a scheduler run (Workers).
	KindSweepStart Kind = iota + 1
	// KindSweepDone closes a scheduler run (Cost, Dur).
	KindSweepDone
	// KindObligation records a worker claiming one proof obligation
	// (Worker, Class, A=rep, B=member, Pending=classes left in the
	// current snapshot — the queue depth at claim time; Retries > 0 marks
	// the claim as a retry of a requeued pair).
	KindObligation
	// KindResolve records the verdict for a claimed obligation being
	// folded into the partition (Worker, Class, A, B, Verdict, Dur=engine
	// prove time).
	KindResolve
	// KindProveStart records one engine starting a Prove call (Engine, A,
	// B, Budget=conflict budget).
	KindProveStart
	// KindProveVerdict records one engine finishing a Prove call (Engine,
	// A, B, Verdict, Conflicts, Props, Dur).
	KindProveVerdict
	// KindEscalation records the portfolio moving a pair one rung up the
	// budget-escalation ladder (A, B, Rung, Budget=scaled conflict
	// budget).
	KindEscalation
	// KindBDDBlowup records a BDD check abandoned on the node limit (A, B).
	KindBDDBlowup
	// KindWorkerPanic records a recovered worker panic; no KindResolve
	// event follows (Worker, Class, A, B). Retries > 0 means the
	// obligation was requeued for another attempt, Retries == 0 means its
	// retry budget was exhausted and the pair was dropped.
	KindWorkerPanic
	// KindPoolFlush records a batched counterexample refinement (Lanes,
	// Splits=class-count increase, i.e. the flush's split power,
	// Dropped=defective pairs, Dur).
	KindPoolFlush
	// KindSimBatch records one simulation-runner iteration (Iter, Vectors,
	// Cost, Decisions/Implications/Backtracks/GenConflicts deltas from the
	// vector source, Dur).
	KindSimBatch
	// KindRequeue records an obligation returned to the queue after a
	// transient engine failure (Worker, Class, A, B, Retries=retry count
	// after this requeue). A fresh KindObligation follows when the pair is
	// claimed again. Panic-driven requeues are carried by KindWorkerPanic
	// with Retries > 0 instead.
	KindRequeue
	// KindPerturb records a chaos-injected schedule perturbation firing
	// (Worker, A, B, Point=decision point, Act=injected action). Emitted
	// only when a chaos injector is installed, never in production runs.
	KindPerturb
	// KindCacheProbe records a verification-memory lookup for a candidate
	// pair (A, B). Cache-enabled runs only — a run without a cache
	// attached emits none of the cache kinds.
	KindCacheProbe
	// KindCacheHit records a probe answered from the cache after
	// revalidation (A, B, Verdict).
	KindCacheHit
	// KindCacheMiss records a probe with no usable record (A, B).
	KindCacheMiss
	// KindCacheEvict records cache records taken out of service
	// (Dropped=records), by a failed revalidation, a detected key
	// collision, or pattern-pool pressure.
	KindCacheEvict
	// KindCacheRevalidateFail records a cache record that matched the key
	// but was rejected by revalidation against the current network (A, B).
	KindCacheRevalidateFail
	// KindWordDetect records one word-structure detection pass over the
	// network (Words=candidate words, WordBits=member bits). Word-enabled
	// runs only.
	KindWordDetect
	// KindWordFrontier records a frontier slice pair proven equal and
	// learned into the shared solver ahead of a wide word miter (A, B,
	// Rung=slice index).
	KindWordFrontier
	// KindPolicyPick records the adaptive portfolio policy choosing the
	// first engine for an obligation shape (A, B, Engine, Point=shape key).
	// Adaptive runs only.
	KindPolicyPick

	numKinds
)

var kindNames = [numKinds]string{
	KindSweepStart:   "sweep_start",
	KindSweepDone:    "sweep_done",
	KindObligation:   "obligation",
	KindResolve:      "resolve",
	KindProveStart:   "prove_start",
	KindProveVerdict: "prove_verdict",
	KindEscalation:   "escalation",
	KindBDDBlowup:    "bdd_blowup",
	KindWorkerPanic:  "worker_panic",
	KindPoolFlush:    "pool_flush",
	KindSimBatch:     "sim_batch",
	KindRequeue:      "requeue",
	KindPerturb:      "perturb",

	KindCacheProbe:          "cache_probe",
	KindCacheHit:            "cache_hit",
	KindCacheMiss:           "cache_miss",
	KindCacheEvict:          "cache_evict",
	KindCacheRevalidateFail: "cache_revalidate_fail",

	KindWordDetect:   "word_detect",
	KindWordFrontier: "word_frontier",
	KindPolicyPick:   "policy_pick",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "invalid"
}

// Verdict values mirror internal/prover's Verdict so producers can convert
// with a plain cast without this package importing the prover.
const (
	VerdictUnknown int8 = 0
	VerdictEqual   int8 = 1
	VerdictDiffer  int8 = 2
)

// VerdictName renders a verdict for logs and JSON streams.
func VerdictName(v int8) string {
	switch v {
	case VerdictEqual:
		return "equal"
	case VerdictDiffer:
		return "differ"
	default:
		return "unknown"
	}
}

// Event is one observation from the pipeline: a flat struct whose fields
// are populated per Kind (see the Kind constants for which). Events are
// passed by value so emitting one never heap-allocates.
type Event struct {
	Kind    Kind
	Worker  int32  // worker index (0 for sequential runs)
	Class   int32  // class index of the obligation
	A, B    int32  // node pair (representative, member)
	Engine  string // engine name: "sat", "bdd", "sim", "portfolio"
	Verdict int8   // VerdictUnknown/Equal/Differ

	Rung      int32 // escalation rung
	Budget    int64 // conflict budget in force
	Conflicts int64 // SAT conflicts spent by this prove call
	Props     int64 // SAT propagations spent by this prove call

	Lanes   int32 // pool-flush vector lanes simulated
	Splits  int32 // pool-flush class splits produced (split power)
	Dropped int32 // pool-flush defective pairs dropped

	Iter         int32 // runner iteration index
	Vectors      int32 // vectors simulated this batch
	Cost         int64 // partition cost (Eq. 5) after the step
	Decisions    int64 // pattern-generation decisions this batch
	Implications int64 // pattern-generation implication steps this batch
	Backtracks   int64 // pattern-generation backtracks this batch
	GenConflicts int64 // pattern-generation conflicts this batch

	Workers int32 // worker count of the run
	Pending int32 // queue depth when the obligation was claimed

	Words    int32 // word-detect candidate words
	WordBits int32 // word-detect member bits across all candidates

	Retries int32  // requeue ordinal: the pair's retry count at this event
	Point   string // chaos decision point of a perturb event
	Act     string // chaos action of a perturb event

	Dur time.Duration // wall time attributable to the event
}

// Tracer receives every event a pipeline stage emits. Implementations must
// be goroutine-safe; parallel sweep workers emit concurrently. The no-op
// tracer is the default everywhere, so instrumented code never checks for
// nil.
type Tracer interface {
	Emit(ev Event)
}

type nopTracer struct{}

func (nopTracer) Emit(Event) {}

// Nop is the zero-cost tracer: one dynamic dispatch, no work, no
// allocation.
var Nop Tracer = nopTracer{}

// OrNop returns t, or Nop when t is nil, so option structs can leave their
// Tracer field unset.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

type multiTracer []Tracer

func (m multiTracer) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// Multi fans events out to every non-nil, non-Nop tracer. With zero or one
// effective tracer it collapses to Nop or the tracer itself.
func Multi(ts ...Tracer) Tracer {
	eff := make(multiTracer, 0, len(ts))
	for _, t := range ts {
		if t == nil || t == Nop {
			continue
		}
		eff = append(eff, t)
	}
	switch len(eff) {
	case 0:
		return Nop
	case 1:
		return eff[0]
	}
	return eff
}

// Recorder retains every emitted event, for tests that assert on the raw
// stream (ordering, multisets, field values).
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a snapshot of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Filter returns the recorded events of one kind.
func (r *Recorder) Filter(k Kind) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, ev := range r.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}
