// Package sweep implements SAT sweeping — the host application of SimGen
// (Fig. 2 of the paper). Candidate equivalence classes produced by
// simulation are verified pairwise by proof engines: proven-equal pairs are
// merged (and taught back to the engines), counterexamples are simulated to
// split the remaining classes.
//
// The flow has one owner per half. Refine runs the simulation half —
// random rounds, the proof cache's pattern replay, then the guided method
// named in core's method table — and every front end (cmd/sweep, sweepd,
// CEC) calls it with the same CECOptions. New builds the sweeping half for
// every engine kind (SAT, BDD, portfolio): one proof-obligation scheduler
// (scheduler.go) consuming a queue of (class, pair) obligations, shallowest
// pair first, with N workers, one shared union-find, and one
// counterexample pool — sequential sweeping is workers=1, and CEC rides
// the scheduler too before its per-output checks. The engines themselves
// (SAT miter, BDD, exhaustive simulation, and the escalating portfolio
// combining them) live in internal/prover.
//
// # Budgets, deadlines, and degradation
//
// Every run mode accepts a context (Refine, RunContext,
// RunParallelContext, CECContext): cancellation or a deadline interrupts
// the engines mid-call and yields a partial Result with Incomplete/TimedOut
// set instead of hanging. Pairs whose SAT call exhausts its
// conflict/propagation budget are not dropped immediately: the portfolio
// climbs an escalation ladder
// (EscalationFactor× larger budgets for MaxEscalations rungs) and, when the
// final rung fails too, falls back to the BDD engine under its own
// node-count limit before declaring the pair Unresolved — the hybrid-engine
// architecture of Chen et al. (arXiv:2501.14740).
package sweep

import (
	"context"
	"fmt"
	"strings"

	"simgen/internal/chaos"
	"simgen/internal/core"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/prover"
	"simgen/internal/sim"
)

// DefaultRetryLimit is the number of times a degraded obligation (worker
// panic or injected transient engine failure) is requeued before the pair
// is dropped as unresolved. It is a fixed rule, not a setting: requeues
// follow only injected faults and worker panics.
const DefaultRetryLimit = 2

// EngineKind selects the proof engine a Sweeper schedules obligations on.
type EngineKind int

const (
	// EngineSAT is the default: the SAT-miter engine behind the escalation
	// ladder, with the BDD fallback only when Options.BDDFallback is set.
	EngineSAT EngineKind = iota
	// EngineBDD proves every pair on canonical BDDs.
	EngineBDD
	// EnginePortfolio runs the full portfolio: free exhaustive-simulation
	// proofs for pairs of at most prover.DefaultSimPIs support inputs, then
	// the SAT ladder, then the BDD fallback (forced on).
	EnginePortfolio
)

// engineNames is the one table of engine names, indexed by kind; it backs
// ParseEngine and String.
var engineNames = [...]string{
	EngineSAT:       "sat",
	EngineBDD:       "bdd",
	EnginePortfolio: "portfolio",
}

// ParseEngine maps a CLI engine name to its kind.
func ParseEngine(s string) (EngineKind, error) {
	for k, name := range engineNames {
		if name == s {
			return EngineKind(k), nil
		}
	}
	return EngineSAT, fmt.Errorf("unknown engine %q (want %s)", s, strings.Join(engineNames[:], "|"))
}

// String returns the kind's engine name, the one ParseEngine maps to it.
func (k EngineKind) String() string {
	if k.known() {
		return engineNames[k]
	}
	return fmt.Sprintf("EngineKind(%d)", int(k))
}

// known reports whether the kind names an engine.
func (k EngineKind) known() bool { return k >= 0 && int(k) < len(engineNames) }

// Options configures a sweep.
type Options struct {
	// Engine selects the proof engine; the zero value is EngineSAT.
	Engine EngineKind

	// ConflictBudget bounds each SAT call's conflicts; 0 means unlimited.
	// Calls that exhaust the budget enter the escalation ladder (or are
	// abandoned as Unresolved when MaxEscalations is 0).
	ConflictBudget int64
	// PropagationBudget bounds each SAT call's unit propagations — the
	// wall-clock-proportional budget; 0 means unlimited.
	PropagationBudget int64
	// MaxPairs bounds the total number of SAT calls; 0 means unlimited.
	MaxPairs int

	// EscalationFactor multiplies the per-call budgets on each escalation
	// rung; values below 2 mean the default of 4.
	EscalationFactor int
	// MaxEscalations is the number of escalation rungs a budget-exhausted
	// pair may climb before falling back to the BDD engine (or being
	// declared unresolved); 0 disables escalation.
	MaxEscalations int
	// BDDFallback re-checks pairs that exhausted the final escalation rung
	// with the BDD engine under BDDNodeLimit.
	BDDFallback bool
	// BDDNodeLimit bounds the fallback BDD manager's node table;
	// 0 means the manager default.
	BDDNodeLimit int

	// WordStage is ignored: the scheduler's bottom-up order does on
	// datapath circuits what the word stage did.
	//
	// Deprecated: the word stage is gone; nothing reads this field.
	WordStage bool
	// Adaptive is ignored: the portfolio always runs its fixed stage
	// order.
	//
	// Deprecated: the adaptive first-engine policy is gone; nothing reads
	// this field.
	Adaptive bool

	// FaultHook, when set, is consulted before every SAT pair check (once
	// per escalation rung) and may inject a failure for that pair. Testing
	// only.
	FaultHook prover.FaultHook

	// Chaos, when set, perturbs parallel sweeps: the injector is consulted
	// at every scheduler decision point (claim, flush, merge, resolve,
	// engine verdict, idle wait) and may inject delays, forced pool
	// flushes, spurious wakeups, or — with a fault profile — transient
	// engine failures, slow timeouts, and worker panics. Sequential runs
	// ignore it so golden traces and panic-propagation semantics are
	// untouched. Testing only; see internal/chaos.
	Chaos chaos.Injector

	// Tracer receives the sweep's observability events (obligations,
	// verdicts, escalations, pool flushes); nil means obs.Nop, which
	// keeps the hot path allocation-free. Tracers must be goroutine-safe
	// when sweeping with multiple workers.
	Tracer obs.Tracer

	// Cache attaches the cross-run verification memory (an
	// internal/pcache Session). Engines that support it (the portfolio)
	// probe it as rung 0 before running anything and record settled
	// verdicts back; the scheduler records high-split-power patterns from
	// counterexample-pool flushes. nil disables caching entirely — a
	// cache-off run emits no cache events and behaves byte-identically to
	// one built before the cache existed.
	Cache Cache

	// TFOMask, with Cache, enables the incremental pre-pass: candidate
	// pairs with both endpoints outside the mask (indexed by NodeID; true
	// marks the transitive fanout of a baseline diff) are settled from
	// the cache alone — equal hits merge, everything else is skipped —
	// and never become scheduled obligations. See pcache.Diff/TFOMask.
	TFOMask []bool
}

// Cache is the scheduler-facing surface of the cross-run verification
// memory. Implementations must be goroutine-safe; *pcache.Session is the
// canonical one.
type Cache interface {
	prover.Prober
	// RecordPatterns stores simulation vectors with their measured
	// split-power score for recycled seeding in later runs.
	RecordPatterns(vecs [][]bool, score int)
	// Replay refines the runner's classes with the stored patterns and
	// returns the number of batches replayed (Refine calls it before
	// guided generation).
	Replay(ctx context.Context, run *core.Runner) int
}

// policy translates the options into the portfolio's degradation schedule.
func (o Options) policy() prover.Policy {
	p := prover.Policy{
		EscalationFactor: o.EscalationFactor,
		MaxEscalations:   o.MaxEscalations,
		BDDFallback:      o.BDDFallback,
		BDDNodeLimit:     o.BDDNodeLimit,
	}
	if o.Engine == EnginePortfolio {
		p.SimPIs = prover.DefaultSimPIs
		p.BDDFallback = true
		if p.BDDNodeLimit == 0 {
			p.BDDNodeLimit = defaultBDDNodes
		}
	}
	return p
}

// Result reports the work performed by a sweep. The embedded prover.Stats
// is the engine work of every obligation summed (SAT calls and time, the
// other engines' checks, escalations, solver conflicts and propagations,
// cache probes); the fields below it are the scheduler's own accounting.
type Result struct {
	prover.Stats

	Scheduled    int  // proof obligations claimed by workers
	Proved       int  // pairs proven equivalent (merged)
	Disproved    int  // pairs split by a counterexample
	Unresolved   int  // pairs abandoned after every budget and engine
	CexVectors   int  // counterexamples re-simulated
	FinalCost    int  // Eq. (5) cost after sweeping
	WorkerPanics int  // recovered worker panics (requeued or unresolved)
	Requeued     int  // obligations returned to the queue after a panic or transient failure
	Retried      int  // requeued obligations claimed again
	PoolFlushes  int  // batched counterexample refinements performed
	PoolLanes    int  // total vector lanes simulated across pool flushes
	PoolDropped  int  // pairs dropped by flushes whose counterexample failed to split
	Incomplete   bool // a deadline, cancel, or MaxPairs stopped the sweep early
	TimedOut     bool // the early stop was a context deadline

	// Incremental pre-pass counters (always zero without Options.Cache and
	// Options.TFOMask); the pre-pass's own probes count in Stats.
	CacheMerged  int // pairs merged by the incremental pre-pass, never scheduled
	CacheSkipped int // out-of-TFO pairs left unscheduled by the pre-pass

	// Enumerated counts the pairs the pre-pass merged from an exact
	// partition (sim.Classes.Exact) without an engine call; such a sweep
	// schedules nothing.
	Enumerated int

	// WordChecks and WordFrontier are always zero.
	//
	// Deprecated: the word stage that counted them is gone.
	WordChecks, WordFrontier int
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calls=%d time=%v proved=%d disproved=%d unresolved=%d",
		r.SATCalls, r.SATTime, r.Proved, r.Disproved, r.Unresolved)
	if r.Enumerated > 0 {
		fmt.Fprintf(&b, " enumerated=%d", r.Enumerated)
	}
	if r.SimChecks > 0 {
		fmt.Fprintf(&b, " simchecks=%d", r.SimChecks)
	}
	if r.Escalations > 0 {
		fmt.Fprintf(&b, " escalations=%d", r.Escalations)
	}
	if r.BDDChecks > 0 {
		fmt.Fprintf(&b, " bddchecks=%d", r.BDDChecks)
	}
	if r.BDDBlowups > 0 {
		fmt.Fprintf(&b, " bddblowups=%d", r.BDDBlowups)
	}
	if r.WorkerPanics > 0 {
		fmt.Fprintf(&b, " panics=%d", r.WorkerPanics)
	}
	if r.Requeued > 0 {
		fmt.Fprintf(&b, " requeued=%d retried=%d", r.Requeued, r.Retried)
	}
	if r.PoolFlushes > 0 {
		fmt.Fprintf(&b, " poolflushes=%d poollanes=%d", r.PoolFlushes, r.PoolLanes)
	}
	if r.PoolDropped > 0 {
		fmt.Fprintf(&b, " pooldropped=%d", r.PoolDropped)
	}
	if r.CacheProbes > 0 || r.CacheMerged > 0 || r.CacheSkipped > 0 {
		fmt.Fprintf(&b, " cacheprobes=%d cachehits=%d cachemisses=%d",
			r.CacheProbes, r.CacheHits, r.CacheMisses)
		if r.CacheRevalFails > 0 {
			fmt.Fprintf(&b, " cacherevalfails=%d", r.CacheRevalFails)
		}
		if r.CacheMerged > 0 || r.CacheSkipped > 0 {
			fmt.Fprintf(&b, " cachemerged=%d cacheskipped=%d", r.CacheMerged, r.CacheSkipped)
		}
	}
	if r.TimedOut {
		b.WriteString(" (timed out)")
	} else if r.Incomplete {
		b.WriteString(" (incomplete)")
	}
	return b.String()
}

// Refinement is the simulation half of the flow, as Refine leaves it: the
// runner holding the refined classes, the Eq. (5) cost after the random
// rounds and after the Replayed cache pattern batches, and the guided
// iterations that completed (nil for method "none" or no iterations). For
// a network of at most prover.DefaultSimPIs inputs the runner's classes
// are Exact instead: InitialCost and ReplayCost are the cost after the
// exhaustive simulation, and nothing replayed or ran.
type Refinement struct {
	Run         *core.Runner
	InitialCost int
	Replayed    int
	ReplayCost  int
	Guided      []core.IterationStat
}

// Exact reports whether Refine enumerated the network: its classes are the
// nodes' functional classes, which the sweep merges without an engine call.
func (r Refinement) Exact() bool { return r.Run.Classes.Exact() }

// Refine runs the simulation half of the paper's flow (Fig. 2) on net:
// RandomRounds random rounds seed the classes, the patterns of
// opts.Sweep.Cache (when set) replay, then the Method's source (empty
// means "simgen"), seeded with Seed+1, refines the classes for at most
// GuidedIterations iterations, each batch recorded back into the cache.
// New(net, ref.Run.Classes, opts.Sweep) sweeps what is left. Settings
// that CECOptions.Check rejects are an error before any work.
//
// A network of at most prover.DefaultSimPIs inputs (4,096 assignments, 64
// words per node) is simulated once over every input assignment instead
// (core.NewExhaustiveRunner): its classes come out exact, so the random
// rounds, the method, and the cache's pattern replay and recording would
// do nothing and are skipped, and the sweep merges every class without an
// engine call.
func Refine(ctx context.Context, net *network.Network, opts CECOptions) (Refinement, error) {
	if opts.Method == "" {
		opts.Method = defaultMethod
	}
	if err := opts.Check(); err != nil {
		return Refinement{}, err
	}
	if net.NumPIs() <= prover.DefaultSimPIs {
		run := core.NewExhaustiveRunner(net)
		run.SetTracer(opts.Sweep.Tracer)
		run.RunContext(ctx, nil, opts.GuidedIterations) // returns at once: StopExact
		cost := run.Classes.Cost()
		return Refinement{Run: run, InitialCost: cost, ReplayCost: cost}, nil
	}
	run := core.NewRunner(net, opts.RandomRounds, opts.Seed)
	run.SetTracer(opts.Sweep.Tracer)
	ref := Refinement{Run: run, InitialCost: run.Classes.Cost()}
	cache := opts.Sweep.Cache
	if cache != nil {
		ref.Replayed = cache.Replay(ctx, run)
	}
	ref.ReplayCost = run.Classes.Cost()
	if opts.GuidedIterations <= 0 {
		return ref, nil
	}
	if src := core.NewSource(net, opts.Method, opts.Seed+1); src != nil {
		if cache != nil {
			// Score each batch by the class splits it produced, so warm
			// runs replay the strongest vectors first; the sweep records
			// only counterexample-pool lanes.
			run.OnIteration = func(_ core.IterationStat, batch [][]bool, split int) {
				cache.RecordPatterns(batch, split)
			}
		}
		ref.Guided = run.RunContext(ctx, src, opts.GuidedIterations)
	}
	return ref, nil
}

// pair is a candidate equivalence awaiting (re-)verification.
type pair struct {
	rep, m network.NodeID
}

// Sweeper verifies the candidate equivalences of a class partition by
// scheduling proof obligations onto the engine selected in Options.
type Sweeper struct {
	sched *scheduler
}

// New creates a sweeper over the network and its current classes.
func New(net *network.Network, classes *sim.Classes, opts Options) *Sweeper {
	return newSweeper(net, classes, opts, nil)
}

// newSweeper is New with an optional pre-built simulator for the
// counterexample pool (CEC reuses its runner's kernel). Its factory is the
// one place a sweep's engines are built, each one complete: the run's
// tracer, and for the portfolio the cache and the fault hook, go in at
// construction.
func newSweeper(net *network.Network, classes *sim.Classes, opts Options, simulator *sim.Simulator) *Sweeper {
	tr := obs.OrNop(opts.Tracer)
	var factory func() prover.Engine
	switch opts.Engine {
	case EngineBDD:
		factory = func() prover.Engine { return prover.NewBDD(net, opts.BDDNodeLimit, tr) }
	default:
		policy := opts.policy()
		factory = func() prover.Engine {
			return prover.NewPortfolio(net, policy, tr, opts.Cache, opts.FaultHook)
		}
	}
	return &Sweeper{sched: newScheduler(net, classes, opts, factory, simulator)}
}

// Rep returns the proven-equivalence representative of a node (itself when
// nothing was merged into it).
func (s *Sweeper) Rep(id network.NodeID) network.NodeID {
	return s.sched.uf.find(id)
}

// Run sweeps every non-singleton class until each candidate pair is proven,
// disproved, or abandoned on budget. It returns the accumulated result.
func (s *Sweeper) Run() Result {
	return s.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation or a deadline interrupts
// the engines promptly and returns the partial result with Incomplete (and
// TimedOut, for deadlines) set. Pairs that exhaust their budget are
// escalated and finally retried on the BDD engine per Options.
func (s *Sweeper) RunContext(ctx context.Context) Result {
	return s.sched.run(ctx, 1)
}

// RunParallel sweeps with the given number of worker goroutines, each
// owning a private proof engine over the shared (read-only) network. The
// class partition is the only shared mutable state and is guarded by the
// scheduler's mutex; proving — the dominant cost — runs outside the lock.
//
// Verdicts are identical to the sequential sweep (equivalences are
// canonical facts), but the order of counterexample refinements differs
// between runs, so per-run call counts may vary slightly.
func (s *Sweeper) RunParallel(workers int) Result {
	return s.RunParallelContext(context.Background(), workers)
}

// RunParallelContext is RunParallel under a context. Cancellation
// interrupts every worker's engine; the partial result carries
// Incomplete/TimedOut. Workers are crash-isolated: a panic while checking
// a pair is recovered (counted in Result.WorkerPanics), the claim on its
// class is always released, and the remaining workers keep sweeping. The
// panicked pair is requeued for up to DefaultRetryLimit attempts before
// being dropped as unresolved (Result.Requeued/Retried account the
// degradation). workers <= 1 sweeps sequentially, as RunContext does.
func (s *Sweeper) RunParallelContext(ctx context.Context, workers int) Result {
	return s.sched.run(ctx, workers)
}
