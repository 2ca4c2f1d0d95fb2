// Package chaos provides deterministic schedule perturbation for the
// concurrent sweeping core. The parallel obligation scheduler and the
// prover engines consult an Injector at every decision point — claiming an
// obligation, flushing the counterexample pool, folding a merge, resolving
// a verdict, idling for work — and the injector answers with an action:
// yield the processor, spin out a delay, force an early pool flush, wake
// idle workers spuriously, or (at the engine boundary) fail, time out, or
// panic the prove call.
//
// The point is reproducible interleaving exploration. Race bugs in the
// scheduler's termination protocol historically needed -race timing luck to
// surface; a seeded Schedule turns each seed into one deterministic-ish
// pattern of perturbations, so a fuzz harness can sweep thousands of
// distinct interleavings per circuit and replay any failing one from its
// seed. Determinism is per decision sequence, not per wall clock: the n-th
// consultation of a given point for a given node pair always draws the same
// action for the same seed.
//
// The package depends only on the standard library so every layer of the
// pipeline (prover, sweep, fuzz) can import it.
package chaos

import "sync/atomic"

// Point identifies one decision point in the concurrent core where an
// injector is consulted.
type Point uint8

const (
	// PointClaim fires when a worker has claimed an obligation and is about
	// to prove it — perturbing here widens the window in which other
	// workers observe the claim.
	PointClaim Point = iota
	// PointFlush fires immediately before a counterexample-pool flush.
	PointFlush
	// PointMerge fires before an Equal verdict's union-find merge.
	PointMerge
	// PointResolve fires when a worker holds a verdict and is about to fold
	// it into the shared partition — the stale-snapshot window of the PR 4
	// missed-merge bug.
	PointResolve
	// PointVerdict fires at the prover Engine boundary, before the real
	// engine runs; fault actions (fail, timeout, panic) apply here.
	PointVerdict
	// PointWait fires when an idle worker is about to sleep for more work;
	// wake actions here simulate spurious wakeups.
	PointWait

	// NumPoints bounds the Point values. New points are appended before this
	// marker so existing points keep their values and seeded schedules keep
	// their historical draws.
	NumPoints
)

var pointNames = [NumPoints]string{
	PointClaim:   "claim",
	PointFlush:   "flush",
	PointMerge:   "merge",
	PointResolve: "resolve",
	PointVerdict: "verdict",
	PointWait:    "wait",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "invalid"
}

// Action is an injector's answer at a decision point. Consumers apply the
// actions that make sense at their point and ignore the rest, so one
// weighted distribution serves every point.
type Action uint8

const (
	// ActNone proceeds unperturbed — the common case.
	ActNone Action = iota
	// ActYield yields the processor once before proceeding.
	ActYield
	// ActDelay yields repeatedly, simulating a descheduled worker.
	ActDelay
	// ActFlush forces an early counterexample-pool flush, reordering
	// refinement relative to in-flight obligations.
	ActFlush
	// ActWake broadcasts a spurious wakeup to idle workers.
	ActWake
	// ActFail makes the engine report a transient Unknown without running.
	ActFail
	// ActTimeout is ActFail after a delay, simulating a slow engine death.
	ActTimeout
	// ActPanic panics the prove call (recovered by parallel workers).
	ActPanic

	numActions
)

var actionNames = [numActions]string{
	ActNone:    "none",
	ActYield:   "yield",
	ActDelay:   "delay",
	ActFlush:   "force_flush",
	ActWake:    "spurious_wake",
	ActFail:    "fail",
	ActTimeout: "timeout",
	ActPanic:   "panic",
}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "invalid"
}

// Faulty reports whether the action injects an engine failure (as opposed
// to merely reshaping the schedule). Runs perturbed only by non-faulty
// actions must produce results identical to unperturbed runs.
func (a Action) Faulty() bool {
	return a == ActFail || a == ActTimeout || a == ActPanic
}

// Injector decides the action taken at each decision point. a and b are
// the node pair in play (negative when no pair applies). Implementations
// must be goroutine-safe: parallel workers consult concurrently.
type Injector interface {
	At(p Point, a, b int32) Action
}

// Profile weights a Schedule's actions in permille (out of 1000) per
// consultation; the remainder is ActNone. The zero Profile never perturbs.
type Profile struct {
	Yield int // permille chance of ActYield
	Delay int // permille chance of ActDelay
	Flush int // permille chance of ActFlush
	Wake  int // permille chance of ActWake

	Fail    int // permille chance of ActFail
	Timeout int // permille chance of ActTimeout
	Panic   int // permille chance of ActPanic
}

// ScheduleProfile perturbs timing only — yields, delays, forced flushes,
// spurious wakeups. Because no verdicts are faulted, a run under this
// profile must produce exactly the sequential result: it is the profile
// behind the interleaving parity gate.
func ScheduleProfile() Profile {
	return Profile{Yield: 300, Delay: 120, Flush: 60, Wake: 60}
}

// FaultProfile adds engine failures, timeouts, and worker panics on top of
// schedule perturbation, exercising the requeue/retry degradation paths.
func FaultProfile() Profile {
	return Profile{Yield: 220, Delay: 80, Flush: 40, Wake: 40,
		Fail: 60, Timeout: 15, Panic: 25}
}

// Schedule is the seeded deterministic Injector: action n at point p for
// pair (a, b) is a pure function of (seed, p, n, a, b), where n is a
// per-point atomic consultation counter. Two runs with the same seed that
// visit a point in the same order draw identical actions; concurrent runs
// stay valid (the counter is atomic) but may attribute draws to different
// workers — which is the point: one seed explores a neighborhood of
// interleavings rather than a single trace.
type Schedule struct {
	seed uint64
	prof Profile
	n    [NumPoints]atomic.Uint64
}

// NewSchedule creates a Schedule drawing from prof with the given seed.
func NewSchedule(seed int64, prof Profile) *Schedule {
	return &Schedule{seed: uint64(seed), prof: prof}
}

// At implements Injector.
func (s *Schedule) At(p Point, a, b int32) Action {
	if int(p) >= len(s.n) {
		return ActNone
	}
	n := s.n[p].Add(1)
	h := mix(s.seed ^ uint64(p)<<56)
	h = mix(h ^ n)
	h = mix(h ^ uint64(uint32(a))<<32 ^ uint64(uint32(b)))
	roll := int(h % 1000)
	for _, c := range [...]struct {
		w   int
		act Action
	}{
		{s.prof.Yield, ActYield},
		{s.prof.Delay, ActDelay},
		{s.prof.Flush, ActFlush},
		{s.prof.Wake, ActWake},
		{s.prof.Fail, ActFail},
		{s.prof.Timeout, ActTimeout},
		{s.prof.Panic, ActPanic},
	} {
		if roll < c.w {
			return c.act
		}
		roll -= c.w
	}
	return ActNone
}

// Decisions returns how many times the schedule has been consulted across
// all points — a coverage signal for harnesses.
func (s *Schedule) Decisions() uint64 {
	var total uint64
	for i := range s.n {
		total += s.n[i].Load()
	}
	return total
}

// mix is the SplitMix64 finalizer, the same diffusion the fuzz campaign
// uses to derive per-iteration seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
