// Package prover defines the pluggable proof engines behind SAT sweeping.
// An Engine answers one question — can these two nodes differ? — and the
// sweeping scheduler (internal/sweep) treats every engine identically, so
// adding a backend (word-level, SMT, distributed) means implementing this
// interface, not growing another sweep loop. The portfolio architecture
// follows the hybrid-sweeping literature (Chen et al., arXiv:2501.14740;
// FORWORD, arXiv:2507.02008): cheap engines first, escalating budgets, a
// canonical fallback last.
package prover

import (
	"context"
	"time"

	"simgen/internal/network"
)

// Verdict is an engine's answer for one node pair.
type Verdict int

const (
	// Unknown means the engine could not settle the pair under its budget
	// (or declined to run it at all).
	Unknown Verdict = iota
	// Equal means the nodes are proven functionally equivalent.
	Equal
	// Differ means the engine found a separating input assignment.
	Differ
)

func (v Verdict) String() string {
	switch v {
	case Equal:
		return "equal"
	case Differ:
		return "differ"
	default:
		return "unknown"
	}
}

// Budget bounds one Prove call. Zero fields mean unlimited. Engines whose
// cost model is not conflict-shaped (BDD node tables, exhaustive
// simulation) are free to ignore it.
type Budget struct {
	Conflicts    int64
	Propagations int64
}

// scale returns the budget multiplied by factor, leaving unlimited (zero)
// fields unlimited.
func (b Budget) scale(factor int64) Budget {
	return Budget{Conflicts: b.Conflicts * factor, Propagations: b.Propagations * factor}
}

// Stats accounts the work one or more Prove calls performed. It is the one
// definition of engine work: the sweep Result embeds it and sums every
// obligation's Stats into it. Conflicts and Propagations surface the SAT
// solver's own work counters per call, so budget spend is attributable per
// obligation and per escalation rung.
type Stats struct {
	SATCalls     int           // SAT solver invocations
	BDDChecks    int           // BDD equivalence queries
	SimChecks    int           // exhaustive-simulation proofs attempted
	WordChecks   int           // word-stage attempts on in-word pairs
	WordFrontier int           // frontier slice equalities proven and learned
	Escalations  int           // budget-escalation retries
	BDDBlowups   int           // BDD node-table blow-ups
	Conflicts    int64         // SAT conflicts spent
	Propagations int64         // SAT unit propagations spent
	SATTime      time.Duration // engine prove wall time, every engine

	// Verification-memory accounting (zero unless a Prober is attached).
	CacheProbes     int // cache lookups performed
	CacheHits       int // lookups answered from the cache (after revalidation)
	CacheMisses     int // lookups with no usable record
	CacheRevalFails int // records rejected by revalidation and evicted
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.SATCalls += o.SATCalls
	s.BDDChecks += o.BDDChecks
	s.SimChecks += o.SimChecks
	s.WordChecks += o.WordChecks
	s.WordFrontier += o.WordFrontier
	s.Escalations += o.Escalations
	s.BDDBlowups += o.BDDBlowups
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.SATTime += o.SATTime
	s.CacheProbes += o.CacheProbes
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheRevalFails += o.CacheRevalFails
}

// CountProbe folds one verification-memory lookup into the cache
// counters: every probe is a hit or a miss, and a miss may also be a
// revalidation failure.
func (s *Stats) CountProbe(cp CacheProbe) {
	s.CacheProbes++
	if cp.RevalFailed {
		s.CacheRevalFails++
	}
	if cp.Hit {
		s.CacheHits++
	} else {
		s.CacheMisses++
	}
}

// Result is the outcome of one Prove call. Cex is a full primary-input
// assignment separating the pair when Verdict is Differ.
type Result struct {
	Verdict Verdict
	Cex     []bool
	Stats   Stats

	// Transient marks an Unknown verdict as an injected or otherwise
	// retryable failure rather than genuine budget exhaustion: the
	// scheduler may requeue the pair instead of dropping it. Only the
	// chaos-injection wrapper (WithChaos) sets it today.
	Transient bool
}

// Engine proves or refutes candidate node equivalences over one network.
// Engines are stateful (learned clauses, node caches) and not
// goroutine-safe: the scheduler gives each worker its own instance. Each
// constructor takes everything its engine needs, the tracer its events go
// to included, so an engine is complete from the moment it exists.
type Engine interface {
	// Prove asks whether nodes a and b can differ. Unknown means the budget
	// (or the context) ran out, never an error: engines degrade, they don't
	// fail.
	Prove(ctx context.Context, a, b network.NodeID, budget Budget) Result
	// Learn records an externally proven equivalence (e.g. by another
	// engine in a portfolio) so later proofs over the same cones get
	// cheaper. Engines with canonical representations may ignore it.
	Learn(a, b network.NodeID)
	// Watch arranges for ctx cancellation to interrupt an in-flight Prove
	// promptly; the returned stop releases the watcher. Engines whose
	// individual checks are already bounded may return a no-op.
	Watch(ctx context.Context) (stop func())
}

// CacheProbe is the outcome of one verification-memory lookup (see
// Prober): a Hit carries a revalidated verdict the caller may use in
// place of running any engine; anything else is a miss.
type CacheProbe struct {
	// Hit reports a usable, revalidated record.
	Hit bool
	// Verdict is the recorded verdict when Hit (never Unknown).
	Verdict Verdict
	// Cex is the recorded separating assignment when Verdict is Differ;
	// replaying it is what revalidated the record, so it is exact.
	Cex []bool
	// RevalFailed reports that a record matched the key but failed
	// revalidation and was evicted; the probe is a miss.
	RevalFailed bool
}

// Prober is the engine-facing surface of the cross-run verification
// memory (internal/pcache): rung 0 of the portfolio's escalation ladder.
// Implementations must be goroutine-safe — one Prober is shared by every
// worker's engine.
type Prober interface {
	// Probe looks the pair up and revalidates any record found.
	Probe(ctx context.Context, a, b network.NodeID) CacheProbe
	// RecordProof stores a settled verdict (Equal, or Differ with the
	// separating assignment).
	RecordProof(a, b network.NodeID, v Verdict, cex []bool)
}

// Fault is a test-only injected failure, returned by a FaultHook to
// exercise degradation paths deterministically.
type Fault int

// Fault kinds. FaultUnknown forces a budget-exhaustion verdict without
// running the solver; FaultPanic panics mid-solve (recovered and converted
// to an unresolved verdict by parallel sweep workers); FaultAssumeEqual
// skips the check entirely and reports the pair equivalent — an *unsound*
// verdict that exists so the differential fuzzing oracle (internal/fuzz)
// can prove it detects a broken prover.
const (
	FaultNone Fault = iota
	FaultUnknown
	FaultPanic
	FaultAssumeEqual
	// FaultWordAssumeEqual is the word-stage analog of FaultAssumeEqual:
	// the word engine reports any in-word pair it is consulted on as
	// equivalent without proving anything. The SAT engine ignores it.
	FaultWordAssumeEqual
)

// FaultHook injects faults per pair check. Testing only.
type FaultHook func(a, b network.NodeID) Fault
