package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/sim"
)

// VectorSource produces batches of input vectors intended to split the
// given candidate equivalence classes. SimGen, reverse simulation and
// random simulation all implement it.
type VectorSource interface {
	Name() string
	// NextBatch returns up to max vectors; an empty result means the
	// source found nothing useful for the current classes.
	NextBatch(classes *sim.Classes, max int) [][]bool
}

// GenStats aggregates the pattern-generation counters a vector source has
// accumulated since creation: decision-strategy row choices, implication
// engine row applications and justification conflicts.
type GenStats struct {
	Decisions    int64
	Implications int64
	Conflicts    int64
	// Backtracks is always zero: no generator backtracks. It is kept only
	// because the bench module still reads it.
	Backtracks int64
}

// StatsSource is optionally implemented by vector sources (Generator,
// Reverse) that track generation counters; the Runner uses it to attribute
// per-batch deltas in its simulation-batch trace events.
type StatsSource interface {
	GenStats() GenStats
}

func (s GenStats) sub(prev GenStats) GenStats {
	return GenStats{
		Decisions:    s.Decisions - prev.Decisions,
		Implications: s.Implications - prev.Implications,
		Conflicts:    s.Conflicts - prev.Conflicts,
	}
}

// IterationStat records one simulation iteration of a Runner.
type IterationStat struct {
	Iteration int
	Cost      int           // Eq. (5) after the iteration
	Vectors   int           // vectors simulated this iteration
	Elapsed   time.Duration // cumulative simulation+generation time
}

// Runner drives the simulation portion of a sweeping flow (Fig. 2): an
// initial random round partitions the nodes into classes, then a vector
// source iteratively refines them.
type Runner struct {
	Net     *network.Network
	Classes *sim.Classes

	// BatchSize is the number of vectors per iteration (a 64-bit machine
	// word's worth by default, matching bit-parallel simulation).
	BatchSize int

	// sim is the reusable arena-backed simulator shared by every
	// iteration: the kernel program is compiled once and the value arena
	// is recycled across batches.
	sim *sim.Simulator

	// OnIteration, when set, sees every iteration RunContext drives: its
	// statistics, the batch the source returned and the number of classes
	// the batch split. An iteration the context cut short still reaches
	// the hook with its batch (having split nothing), though RunContext
	// does not return its statistics.
	OnIteration func(st IterationStat, batch [][]bool, split int)

	// tr receives one KindSimBatch event per iteration; never nil
	// (obs.Nop by default).
	tr      obs.Tracer
	lastGen GenStats // source counters at the previous batch boundary

	elapsed time.Duration
	stopped StopReason // why the last RunContext call ended
}

// patience is the paper's Figure 7 stagnation rule: guided generation
// hands over once the Eq. (5) cost has stayed where it was for this many
// consecutive iterations.
const patience = 3

// StopReason says why a RunContext call ended.
type StopReason int

const (
	// StopLimit: the run made every iteration it was asked for.
	StopLimit StopReason = iota
	// StopFlat: the cost stayed flat for patience consecutive iterations.
	StopFlat
	// StopContext: the context was cancelled or passed its deadline.
	StopContext
	// StopExact: the partition is exact (sim.Classes.Exact), so no vector
	// can split a class and no iteration ran.
	StopExact
)

var stopNames = [...]string{"iteration limit", fmt.Sprintf("cost flat for %d", patience), "deadline", "partition exact"}

func (s StopReason) String() string { return stopNames[s] }

// NewRunner creates a runner and performs the initial random-simulation
// round (randRounds words of 64 random vectors each) that seeds the
// equivalence classes.
func NewRunner(net *network.Network, randRounds int, seed int64) *Runner {
	if randRounds < 1 {
		randRounds = 1
	}
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	simulator := sim.NewSimulator(net)
	inputs := sim.RandomInputs(net, randRounds, rng)
	return newRunner(net, simulator, sim.NewClasses(net, simulator.Simulate(inputs, randRounds)), start)
}

// NewExhaustiveRunner creates a runner whose classes come from one
// simulation of every input assignment (sim.ExactClasses), so they are
// exact: RunContext has nothing to generate and stops with StopExact. The
// simulation takes 1 << max(0, n-6) words per node for n inputs; the
// caller picks the cutoff.
func NewExhaustiveRunner(net *network.Network) *Runner {
	start := time.Now()
	simulator := sim.NewSimulator(net)
	return newRunner(net, simulator, sim.ExactClasses(net, simulator), start)
}

func newRunner(net *network.Network, simulator *sim.Simulator, classes *sim.Classes, start time.Time) *Runner {
	return &Runner{
		Net:       net,
		Classes:   classes,
		BatchSize: 64,
		sim:       simulator,
		tr:        obs.Nop,
		elapsed:   time.Since(start),
	}
}

// SetTracer routes the runner's per-iteration simulation-batch events to t;
// nil restores obs.Nop.
func (r *Runner) SetTracer(t obs.Tracer) { r.tr = obs.OrNop(t) }

// Elapsed returns the cumulative generation+simulation time.
func (r *Runner) Elapsed() time.Duration { return r.elapsed }

// Simulator exposes the runner's compiled arena-backed simulator so later
// pipeline stages (e.g. the sweeping scheduler's counterexample pool) can
// reuse it instead of compiling a second kernel for the same network.
func (r *Runner) Simulator() *sim.Simulator { return r.sim }

// Step runs one iteration with the source: generate a batch, simulate it,
// refine the classes. It reports the resulting statistics.
func (r *Runner) Step(src VectorSource, iteration int) IterationStat {
	st, _ := r.StepContext(context.Background(), src, iteration)
	return st
}

// StepContext is Step under a context: a cancelled context skips generation
// and abandons a half-finished simulation without refining the classes
// (refinement must only ever see complete value sets). ok is false when the
// iteration was cut short.
func (r *Runner) StepContext(ctx context.Context, src VectorSource, iteration int) (st IterationStat, ok bool) {
	st, _, ok = r.step(ctx, src, iteration)
	return st, ok
}

// step is StepContext that also hands back the batch the source returned.
func (r *Runner) step(ctx context.Context, src VectorSource, iteration int) (st IterationStat, vectors [][]bool, ok bool) {
	start := time.Now()
	ok = true
	if ctx.Err() == nil {
		vectors = src.NextBatch(r.Classes, r.BatchSize)
	} else {
		ok = false
	}
	if len(vectors) > 0 {
		inputs, nwords := sim.PackVectors(r.Net, vectors)
		if vals, done := r.sim.SimulateContext(ctx, inputs, nwords); done {
			// Bound the refinement to the packed lanes: PackVectors
			// zero-pads the final word, and the padding lanes are not
			// vectors the source generated.
			r.Classes.RefineN(vals, len(vectors))
		} else {
			ok = false
		}
	}
	r.elapsed += time.Since(start)
	st = IterationStat{
		Iteration: iteration,
		Cost:      r.Classes.Cost(),
		Vectors:   len(vectors),
		Elapsed:   r.elapsed,
	}
	ev := obs.Event{Kind: obs.KindSimBatch,
		Iter:    int32(iteration),
		Vectors: int32(len(vectors)),
		Cost:    int64(st.Cost),
		Dur:     time.Since(start)}
	if ss, okStats := src.(StatsSource); okStats {
		gs := ss.GenStats()
		d := gs.sub(r.lastGen)
		r.lastGen = gs
		ev.Decisions, ev.Implications, ev.GenConflicts = d.Decisions, d.Implications, d.Conflicts
	}
	r.tr.Emit(ev)
	return st, vectors, ok
}

// Run is RunContext without a deadline.
func (r *Runner) Run(src VectorSource, n int) []IterationStat {
	return r.RunContext(context.Background(), src, n)
}

// RunContext is the guided driver. It performs at most n iterations and
// stops after the third consecutive one that leaves the Eq. (5) cost where
// it was (the paper's Figure 7 hand-over rule); an iteration that yields no
// vectors cannot move the cost, so it counts as flat. A cancelled context
// or a passed deadline also ends the run. It returns the statistics of the
// iterations that completed, which for a given source and seed are always
// a prefix of what n calls of Step would produce; Stopped says which rule
// ended the run. n <= 0 runs no iteration and stops on the limit. On an
// exact partition it returns at once, calls no source (src may be nil) and
// stops with StopExact.
func (r *Runner) RunContext(ctx context.Context, src VectorSource, n int) []IterationStat {
	if r.Classes.Exact() {
		r.stopped = StopExact
		return nil
	}
	stats := make([]IterationStat, 0, max(n, 0))
	r.stopped = StopLimit
	cost, flat := r.Classes.Cost(), 0
	for i := 0; i < n; i++ {
		classes := r.Classes.NumClasses()
		st, batch, ok := r.step(ctx, src, i)
		if r.OnIteration != nil {
			r.OnIteration(st, batch, r.Classes.NumClasses()-classes)
		}
		if !ok {
			r.stopped = StopContext
			break
		}
		stats = append(stats, st)
		if st.Cost < cost {
			flat = 0
		} else {
			flat++
		}
		cost = st.Cost
		if flat == patience && i+1 < n {
			r.stopped = StopFlat
			break
		}
	}
	return stats
}

// Stopped reports why the last RunContext call ended.
func (r *Runner) Stopped() StopReason { return r.stopped }
