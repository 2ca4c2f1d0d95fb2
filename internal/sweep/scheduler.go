package sweep

import (
	"cmp"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"time"

	"simgen/internal/chaos"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/prover"
	"simgen/internal/sim"
)

// obligation is one unit of proof work: member m must be proven equal to
// or different from its class representative rep (class index ci).
type obligation struct {
	ci     int
	rep, m network.NodeID
}

// unsafeStaleExit restores the pre-fix termination protocol that trusted a
// drained snapshot and could exit with unclaimed pairs left (the
// missed-merge race of DESIGN.md 3.11). It exists only so the
// interleaving-sweep self-test can prove it would catch the bug; tests set
// it through export_test.go and nothing else may.
var unsafeStaleExit bool

// scheduler is the single sweep loop behind every engine and mode: one
// queue of (class, pair) obligations drawn from the partition, consumed by
// N workers (sequential sweeping is workers=1), one shared union-find, one
// counterexample pool, one Result shape. Engine differences — SAT vs BDD
// vs portfolio, escalation, fallback — live entirely behind prover.Engine.
//
// Every worker count runs the same loop (work: next, process, apply,
// release) over one snapshot cursor under the partition mutex; parallel
// runs are N goroutines of that loop, each with a private engine.
type scheduler struct {
	net     *network.Network
	classes *sim.Classes
	opts    Options
	budget  prover.Budget

	// primary is the engine used by sequential runs and worker 0, so its
	// learned state (e.g. SAT equality clauses) survives for later phases
	// like CEC's output checks; factory builds private engines for the
	// remaining workers.
	primary prover.Engine
	factory func() prover.Engine

	// tr receives the scheduler's observability events, as the engines
	// the factory builds do. Never nil (obs.Nop by default).
	tr obs.Tracer

	// inj is the chaos injector consulted at every scheduling decision
	// point; nil outside perturbed parallel runs (the common case).
	inj chaos.Injector

	uf   *unionFind
	pool *cexPool

	mu      sync.Mutex
	cond    *sync.Cond // signaled whenever claims release or work may appear
	res     Result
	claimed map[network.NodeID]bool // class reps with an obligation in flight
	retries map[pair]int            // requeue counts per degraded pair

	// snap is the current level-ordered snapshot (byLevel) being drained,
	// with a shared cursor; progress tells refreshes apart from exhausted
	// passes.
	snap     []int
	snapPos  int
	progress bool
}

// newScheduler builds a scheduler over the partition; factory builds one
// complete engine per call, the primary first. simulator, when non-nil,
// backs the counterexample pool (callers that already compiled an arena
// simulator for the network pass it to avoid a second kernel).
func newScheduler(net *network.Network, classes *sim.Classes, opts Options,
	factory func() prover.Engine, simulator *sim.Simulator) *scheduler {
	s := &scheduler{
		net:     net,
		classes: classes,
		opts:    opts,
		budget:  prover.Budget{Conflicts: opts.ConflictBudget, Propagations: opts.PropagationBudget},
		primary: factory(),
		factory: factory,
		tr:      obs.OrNop(opts.Tracer),
		uf:      newUnionFind(net.NumNodes()),
		pool:    newCexPool(net, classes, simulator),
		claimed: make(map[network.NodeID]bool),
		retries: make(map[pair]int),
	}
	s.cond = sync.NewCond(&s.mu)
	s.pool.keep = opts.Cache != nil
	return s
}

// run drains every obligation with the given worker count and returns the
// accumulated result. Sequential runs (workers <= 1) execute on the
// primary engine without panic isolation or chaos injection — injected
// faults must propagate to the caller there, while parallel workers
// convert recovered panics to requeues or unresolved verdicts.
func (s *scheduler) run(ctx context.Context, workers int) Result {
	s.res = Result{}
	s.snap = nil
	start := time.Now()
	s.prePass(ctx)
	if workers <= 1 {
		s.tr.Emit(obs.Event{Kind: obs.KindSweepStart, Workers: 1})
		func() {
			stop := s.primary.Watch(ctx)
			defer stop()
			s.work(ctx, s.primary, 0, false)
		}()
	} else {
		s.tr.Emit(obs.Event{Kind: obs.KindSweepStart, Workers: int32(workers)})
		s.inj = s.opts.Chaos
		// Cancellation must reach workers parked on the idle condition
		// variable, not only those inside engine calls.
		stopWake := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stopWake()
		s.net.Warm() // the workers share the network read-only from here on
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			eng := s.primary
			if i > 0 {
				eng = s.factory()
			}
			if s.inj != nil {
				eng = prover.WithChaos(eng, s.inj, s.tr)
			}
			wg.Add(1)
			go func(eng prover.Engine, wid int32) {
				defer wg.Done()
				stop := eng.Watch(ctx)
				defer stop()
				s.work(ctx, eng, wid, true)
			}(eng, int32(i))
		}
		wg.Wait()
	}
	s.mu.Lock()
	s.flushPool()
	s.finish(ctx)
	s.mu.Unlock()
	s.tr.Emit(obs.Event{Kind: obs.KindSweepDone,
		Cost: int64(s.res.FinalCost), Dur: time.Since(start)})
	return s.res
}

// prePass settles what needs no engine before any worker starts: every
// class of an exact partition (enumerate), or else the incremental-mode
// pairs outside the edit's fanout (incremental).
func (s *scheduler) prePass(ctx context.Context) {
	if s.classes.Exact() {
		s.enumerate()
		return
	}
	s.incremental(ctx)
}

// enumerate merges every member of an exact partition (sim.Classes.Exact)
// into its class representative, counting each merge once in
// Result.Enumerated and emitting one KindEnumerate event. The partition
// was built from every input assignment, so the members of a class have
// equal truth tables: each merge is proved by that simulation, and no
// obligation is left for a worker.
func (s *scheduler) enumerate() {
	start := time.Now()
	for _, ci := range s.classes.NonSingleton() {
		rep := s.classes.Members(ci)[0]
		merged := s.classes.Settle(ci)
		for _, m := range merged {
			s.uf.union(rep, m)
		}
		s.res.Enumerated += len(merged)
	}
	s.tr.Emit(obs.Event{Kind: obs.KindEnumerate, PIs: int32(s.net.NumPIs()),
		Merges: int32(s.res.Enumerated), Dur: time.Since(start)})
}

// incremental is the incremental-mode pre-pass: when Options.TFOMask marks the
// transitive fanout of a base-circuit diff and a cache is attached, every
// candidate pair with both endpoints outside the mask is untouched logic
// and is settled from the cache alone — an Equal hit merges immediately, a
// Differ hit or a miss drops the member from its class — so the
// obligations that reach the workers are exactly those touching the edit.
// Soundness never rests on the mask: cache verdicts are revalidated
// against the current network by the prober before they are acted on.
// Runs single-threaded before any worker starts.
func (s *scheduler) incremental(ctx context.Context) {
	if s.opts.Cache == nil || len(s.opts.TFOMask) == 0 {
		return
	}
	mask := s.opts.TFOMask
	in := func(id network.NodeID) bool {
		return int(id) < len(mask) && mask[id]
	}
	for _, ci := range s.classes.NonSingleton() {
		members := s.classes.Members(ci)
		if len(members) < 2 {
			continue
		}
		rep := members[0]
		if in(rep) {
			// The representative is in the edit's fanout; every pair of this
			// class touches it, so the whole class stays scheduled.
			continue
		}
		for _, m := range members[1:] {
			if in(m) {
				continue
			}
			cp := s.opts.Cache.Probe(ctx, rep, m)
			s.res.CountProbe(cp)
			if cp.Hit && cp.Verdict == prover.Equal {
				if cm := s.classes.ClassOf(m); cm >= 0 && cm == s.classes.ClassOf(rep) {
					s.uf.union(rep, m)
					s.classes.Remove(m)
				}
				s.res.CacheMerged++
				continue
			}
			// Differ hit or cache miss: outside the edit's fanout there is
			// nothing new to prove, so the member leaves its class rather
			// than becoming an obligation.
			s.classes.Remove(m)
			s.res.CacheSkipped++
		}
	}
}

// work is the per-worker loop: claim an obligation, prove it, fold the
// verdict into the shared state, repeat until the queue runs dry.
func (s *scheduler) work(ctx context.Context, eng prover.Engine, wid int32, isolate bool) {
	for ctx.Err() == nil {
		ob, ok := s.next(ctx, wid)
		if !ok {
			return
		}
		s.process(ctx, eng, wid, ob, isolate)
	}
}

// process proves one obligation. With isolate set, an engine panic is
// recovered and the obligation requeued for a bounded number of retries
// before it is dropped as unresolved, so one poisoned worker cannot take
// down a parallel sweep.
func (s *scheduler) process(ctx context.Context, eng prover.Engine, wid int32, ob obligation, isolate bool) {
	defer s.release(ob.rep)
	if isolate {
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				s.res.WorkerPanics++
				n, requeued := s.tryRequeue(ob)
				if !requeued {
					s.res.Unresolved++
					s.classes.Remove(ob.m)
				}
				s.mu.Unlock()
				s.tr.Emit(obs.Event{Kind: obs.KindWorkerPanic, Worker: wid,
					Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
					Retries: int32(n)})
			}
		}()
	}
	s.perturb(chaos.PointClaim, wid, int32(ob.rep), int32(ob.m), false)
	pr := eng.Prove(ctx, ob.rep, ob.m, s.budget)
	s.perturb(chaos.PointResolve, wid, int32(ob.rep), int32(ob.m), false)
	if s.apply(ctx, wid, ob, pr) {
		eng.Learn(ob.rep, ob.m)
	}
}

// next claims the next obligation under the partition lock. It drains a
// level-ordered snapshot (byLevel) with a shared cursor; when the snapshot
// runs dry it is refreshed (splits create classes a stale snapshot cannot
// see).
//
// Termination is decided against fresh state, never a drained snapshot:
// the queue is empty only when a fresh scan finds nothing claimable, no
// counterexamples are pending, and no obligation is in flight. In-flight
// obligations can mint new work — an Equal verdict leaves its class
// non-singleton, a Differ refills the pool — so as long as any claim is
// held, idle workers park on the condition variable instead of exiting
// (the stale-snapshot exit was the PR 4 missed-merge race; see
// unsafeStaleExit and DESIGN.md 3.11).
func (s *scheduler) next(ctx context.Context, wid int32) (obligation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return obligation{}, false
		}
		if s.opts.MaxPairs > 0 && s.res.SATCalls >= s.opts.MaxPairs {
			s.res.Incomplete = true
			return obligation{}, false
		}
		if s.snap == nil {
			s.snap = s.byLevel()
			s.snapPos = 0
			s.progress = false
		}
		for s.snapPos < len(s.snap) {
			ci := s.snap[s.snapPos]
			members := s.classes.Members(ci)
			if len(members) < 2 {
				s.snapPos++
				continue
			}
			rep := members[0]
			if s.claimed[rep] {
				s.snapPos++
				continue
			}
			m := members[1]
			if s.pool.touches(rep, m) {
				// Membership is stale under pending counterexamples:
				// refine first, then re-read this class.
				s.perturb(chaos.PointFlush, wid, int32(rep), int32(m), true)
				s.flushPool()
				continue
			}
			s.claimed[rep] = true
			s.progress = true
			s.res.Scheduled++
			retries := int32(s.retries[pair{rep, m}])
			if retries > 0 {
				s.res.Retried++
			}
			s.tr.Emit(obs.Event{Kind: obs.KindObligation, Worker: wid,
				Class: int32(ci), A: int32(rep), B: int32(m),
				Pending: int32(len(s.snap) - s.snapPos), Retries: retries})
			// The cursor stays on ci: a sequential worker returns straight
			// to the same class until it is settled.
			return obligation{ci: ci, rep: rep, m: m}, true
		}
		if !s.progress {
			switch {
			case !s.pool.empty():
				// Pending counterexamples may split classes back above the
				// singleton threshold; flush and rescan.
				s.flushPool()
			case unsafeStaleExit:
				// Test-only: the pre-fix protocol exited here, trusting a
				// snapshot other workers may have drained and reset while
				// this worker's last merge was still in flight.
				return obligation{}, false
			case s.claimable():
				// The drained snapshot went stale while other workers
				// mutated the partition; rescan fresh instead of exiting.
			case len(s.claimed) > 0:
				// In-flight obligations can still mint work; sleep until a
				// claim is released rather than spin or exit early.
				s.wait(wid)
			default:
				return obligation{}, false
			}
		}
		s.snap = nil
	}
}

// byLevel returns the partition's non-singleton classes shallowest first:
// ordered by the deeper level of each class's next pair (its
// representative and first member), ties kept in NonSingleton's
// largest-first order. Proving bottom-up means a deep pair's miter meets
// its cone's equalities already learned, so wide datapath miters collapse
// by propagation instead of case-splitting. The caller holds mu; the
// levels were built before workers shared the network (network.Warm).
func (s *scheduler) byLevel() []int {
	snap := slices.Clone(s.classes.NonSingleton())
	depth := func(ci int) int {
		members := s.classes.Members(ci)
		return max(s.net.Level(members[0]), s.net.Level(members[1]))
	}
	slices.SortStableFunc(snap, func(a, b int) int { return cmp.Compare(depth(a), depth(b)) })
	return snap
}

// claimable reports whether a fresh partition scan holds any unclaimed
// obligation; the caller holds mu and has drained the pool.
func (s *scheduler) claimable() bool {
	for _, ci := range s.classes.NonSingleton() {
		members := s.classes.Members(ci)
		if len(members) >= 2 && !s.claimed[members[0]] {
			return true
		}
	}
	return false
}

// wait parks an idle worker until shared state changes; the caller holds
// mu. A chaos injector may convert the sleep into a spurious wakeup.
func (s *scheduler) wait(wid int32) {
	if s.inj != nil {
		switch act := s.inj.At(chaos.PointWait, -1, -1); act {
		case chaos.ActWake, chaos.ActYield:
			// Spurious wakeup: wake every parked worker, skip our own
			// sleep once, and rescan.
			s.cond.Broadcast()
			s.emitPerturb(chaos.PointWait, act, wid, -1, -1)
			return
		}
	}
	s.cond.Wait()
}

// release returns a claimed representative to the queue and wakes idle
// workers: a released claim is exactly the state change a parked worker is
// waiting to rescan.
func (s *scheduler) release(rep network.NodeID) {
	s.mu.Lock()
	delete(s.claimed, rep)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// tryRequeue returns ob's pair to the queue after a recoverable failure
// while it has been requeued fewer than DefaultRetryLimit times, reporting
// the pair's new retry count; the caller holds mu. The pair stays in its
// class, so the next fresh scan reissues the obligation.
func (s *scheduler) tryRequeue(ob obligation) (retries int, ok bool) {
	pr := pair{ob.rep, ob.m}
	if s.retries[pr] >= DefaultRetryLimit {
		return 0, false
	}
	s.retries[pr]++
	s.res.Requeued++
	return s.retries[pr], true
}

// apply folds one prover outcome into the shared state; it reports whether
// the verdict was Equal so the caller can teach its engine the equality.
func (s *scheduler) apply(ctx context.Context, wid int32, ob obligation, pr prover.Result) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.res.Add(pr.Stats)
	if pr.Verdict == prover.Unknown && pr.Transient && ctx.Err() == nil {
		// A transient (injected) engine failure is not budget exhaustion:
		// requeue the pair for another attempt instead of resolving it.
		if n, ok := s.tryRequeue(ob); ok {
			s.tr.Emit(obs.Event{Kind: obs.KindRequeue, Worker: wid,
				Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
				Retries: int32(n)})
			return false
		}
	}
	s.tr.Emit(obs.Event{Kind: obs.KindResolve, Worker: wid,
		Class: int32(ob.ci), A: int32(ob.rep), B: int32(ob.m),
		Verdict: int8(pr.Verdict), Dur: pr.Stats.SATTime})
	switch pr.Verdict {
	case prover.Equal:
		s.perturb(chaos.PointMerge, wid, int32(ob.rep), int32(ob.m), true)
		// Guard against the pair having been split meanwhile — impossible
		// for a sound engine (a split needs a separating vector), but an
		// unsound verdict (injected faults) must not corrupt the partition
		// invariants.
		if cm := s.classes.ClassOf(ob.m); cm >= 0 && cm == s.classes.ClassOf(ob.rep) {
			s.uf.union(ob.rep, ob.m)
			s.classes.Remove(ob.m)
		}
		s.res.Proved++
		return true
	case prover.Differ:
		s.res.Disproved++
		s.res.CexVectors++
		if s.pool.full() {
			s.flushPool()
		}
		s.pool.add(pr.Cex, pair{ob.rep, ob.m})
	default:
		if ctx.Err() != nil {
			// Interrupted, not out of budget: leave the pair in its class
			// so the partial result still reports it as an open candidate.
			s.res.Incomplete = true
			return false
		}
		// Every budget and engine in the portfolio is exhausted: drop the
		// member so the sweep terminates.
		s.classes.Remove(ob.m)
		s.res.Unresolved++
	}
	return false
}

// flushPool drains the counterexample pool into the partition; the caller
// holds mu. Pairs a flush failed to separate (defective counterexamples)
// are dropped from their classes by the pool and accounted both as
// unresolved and under the distinct PoolDropped counter.
func (s *scheduler) flushPool() {
	p := s.pool
	if p.empty() {
		return
	}
	lanes := p.lanes
	before := s.classes.NumClasses()
	start := time.Now()
	dropped := p.flush()
	s.res.Unresolved += len(dropped)
	s.res.PoolDropped += len(dropped)
	s.res.PoolFlushes++
	s.res.PoolLanes += lanes
	splits := s.classes.NumClasses() - before
	s.tr.Emit(obs.Event{Kind: obs.KindPoolFlush,
		Lanes:   int32(lanes),
		Splits:  int32(splits),
		Dropped: int32(len(dropped)),
		Dur:     time.Since(start)})
	if s.opts.Cache != nil && len(p.kept) > 0 {
		// Counterexamples that just split classes are exactly the vectors
		// worth recycling next run; score them by this flush's split power.
		s.opts.Cache.RecordPatterns(p.kept, splits)
		p.kept = p.kept[:0]
	}
	// A flush reshapes the partition; parked workers must rescan.
	s.cond.Broadcast()
}

// perturb consults the chaos injector at a decision point and applies
// schedule-shaping actions; fault actions belong to the engine boundary
// and are ignored here. locked reports whether the caller already holds
// mu: a forced flush or wake takes the lock only when it does not.
func (s *scheduler) perturb(p chaos.Point, wid, a, b int32, locked bool) {
	if s.inj == nil {
		return
	}
	act := s.inj.At(p, a, b)
	switch act {
	case chaos.ActYield:
		runtime.Gosched()
	case chaos.ActDelay:
		for i := 0; i < schedDelaySpins; i++ {
			runtime.Gosched()
		}
	case chaos.ActFlush, chaos.ActWake:
		if !locked {
			s.mu.Lock()
		}
		if act == chaos.ActFlush {
			s.flushPool()
		} else {
			s.cond.Broadcast()
		}
		if !locked {
			s.mu.Unlock()
		}
	default:
		return
	}
	s.emitPerturb(p, act, wid, a, b)
}

// schedDelaySpins is the cooperative-yield count of an injected delay.
const schedDelaySpins = 32

func (s *scheduler) emitPerturb(p chaos.Point, act chaos.Action, wid, a, b int32) {
	s.tr.Emit(obs.Event{Kind: obs.KindPerturb, Worker: wid,
		Point: p.String(), Act: act.String(), A: a, B: b})
}

// finish stamps the final accounting shared by all run modes; the caller
// holds mu.
func (s *scheduler) finish(ctx context.Context) {
	s.res.FinalCost = s.classes.Cost()
	if err := ctx.Err(); err != nil {
		s.res.Incomplete = true
		if errors.Is(err, context.DeadlineExceeded) {
			s.res.TimedOut = true
		}
	}
}
