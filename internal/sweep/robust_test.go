package sweep

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/mapper"
	"simgen/internal/network"
	"simgen/internal/sim"
)

// benchClasses generates a named benchmark with its initial random-round
// partition.
func benchClasses(t *testing.T, name string, seed int64) (*network.Network, *core.Runner) {
	t.Helper()
	b, ok := genbench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	net, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	return net, core.NewRunner(net, 1, seed)
}

// stackedSquare builds a putontop-scaled copy of the SAT-hard "square"
// benchmark, the deadline tests' pathological workload.
func stackedSquare(t *testing.T, copies int) *network.Network {
	t.Helper()
	b, ok := genbench.ByName("square")
	if !ok {
		t.Fatal("benchmark square not registered")
	}
	net, err := mapper.Map(genbench.PutOnTop(b.Build(), copies), mapper.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestEscalationRecoversUnresolvedPairs(t *testing.T) {
	// Under a starvation budget the drop-on-budget policy abandons most
	// pairs; the escalation ladder must recover strictly more of them.
	net, run := benchClasses(t, "sin", 42)
	base := New(net, run.Classes, Options{ConflictBudget: 2}).Run()
	if base.Unresolved == 0 {
		t.Fatal("baseline did not exhaust any budget; test is vacuous")
	}
	if base.Incomplete {
		t.Fatal("budget exhaustion alone must not mark the result incomplete")
	}

	net2, run2 := benchClasses(t, "sin", 42)
	esc := New(net2, run2.Classes, Options{ConflictBudget: 2, MaxEscalations: 4}).Run()
	if esc.Escalations == 0 {
		t.Fatal("no escalated re-checks performed")
	}
	if esc.Unresolved >= base.Unresolved {
		t.Fatalf("escalation did not reduce unresolved pairs: %d vs baseline %d",
			esc.Unresolved, base.Unresolved)
	}
}

func TestEscalationRecoversUnresolvedPairsParallel(t *testing.T) {
	net, run := benchClasses(t, "sin", 42)
	base := New(net, run.Classes, Options{ConflictBudget: 2}).RunParallel(4)
	if base.Unresolved == 0 {
		t.Fatal("baseline did not exhaust any budget; test is vacuous")
	}
	net2, run2 := benchClasses(t, "sin", 42)
	esc := New(net2, run2.Classes, Options{ConflictBudget: 2, MaxEscalations: 4}).RunParallel(4)
	if esc.Unresolved >= base.Unresolved {
		t.Fatalf("escalation did not reduce unresolved pairs: %d vs baseline %d",
			esc.Unresolved, base.Unresolved)
	}
}

func TestBDDFallbackResolvesFinalRungPairs(t *testing.T) {
	// Cap the ladder low enough that pairs still fall off its end, and let
	// the BDD engine settle them.
	net, run := benchClasses(t, "sin", 42)
	res := New(net, run.Classes, Options{
		ConflictBudget: 2,
		MaxEscalations: 1,
		BDDFallback:    true,
	}).Run()
	if res.BDDChecks == 0 {
		t.Fatal("no pairs reached the BDD fallback")
	}
	if res.Unresolved != 0 {
		t.Fatalf("BDD fallback left %d pairs unresolved on an easy-for-BDDs circuit", res.Unresolved)
	}
}

func TestEscalationAndFallbackAreSound(t *testing.T) {
	// Merges recovered via escalation and BDD fallback must agree with
	// exhaustive simulation on random networks.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		net := randomNet(rng, 5, 12+rng.Intn(15))
		runner := core.NewRunner(net, 1, int64(trial))
		sw := New(net, runner.Classes, Options{
			ConflictBudget: 1,
			MaxEscalations: 2,
			BDDFallback:    true,
		})
		res := sw.Run()
		npis := net.NumPIs()
		sig := make([]uint64, net.NumNodes())
		for m := 0; m < 1<<npis; m++ {
			assign := make([]bool, npis)
			for i := range assign {
				assign[i] = m&(1<<i) != 0
			}
			out := sim.SimulateVector(net, assign)
			for id := range sig {
				if out[id] {
					sig[id] |= 1 << uint(m)
				}
			}
		}
		for id := 0; id < net.NumNodes(); id++ {
			nid := network.NodeID(id)
			rep := sw.Rep(nid)
			if rep != nid && sig[rep] != sig[nid] {
				t.Fatalf("trial %d: escalated sweep merged inequivalent nodes %d and %d (%s)",
					trial, nid, rep, res)
			}
		}
	}
}

func TestSequentialAndParallelProveSameEquivalenceSet(t *testing.T) {
	// The proven-equivalence relation is a semantic fact: both run modes
	// must merge exactly the same nodes on seeded random networks.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		npis, nluts := 5, 14+rng.Intn(12)
		seedNet := randomNet(rng, npis, nluts)

		clone := func() (*Sweeper, Result) {
			runner := core.NewRunner(seedNet, 1, int64(trial))
			return New(seedNet, runner.Classes.Clone(), Options{}), Result{}
		}
		seq, _ := clone()
		seqRes := seq.Run()
		par, _ := clone()
		parRes := par.RunParallel(4)

		for id := 0; id < seedNet.NumNodes(); id++ {
			nid := network.NodeID(id)
			if (seq.Rep(nid) == nid) != (par.Rep(nid) == nid) {
				t.Fatalf("trial %d: node %d merged in one mode only (seq %s / par %s)",
					trial, nid, seqRes, parRes)
			}
		}
		if seqRes.Proved != parRes.Proved {
			t.Fatalf("trial %d: proof counts differ: %d vs %d", trial, seqRes.Proved, parRes.Proved)
		}
	}
}

func TestCancelledContextReturnsPartialEverywhere(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("sequential", func(t *testing.T) {
		net, run := benchClasses(t, "apex2", 1)
		res := New(net, run.Classes, Options{}).RunContext(ctx)
		if !res.Incomplete {
			t.Fatal("cancelled sequential sweep not marked incomplete")
		}
		if res.TimedOut {
			t.Fatal("plain cancellation misreported as a deadline")
		}
	})
	t.Run("parallel", func(t *testing.T) {
		net, run := benchClasses(t, "apex2", 1)
		res := New(net, run.Classes, Options{}).RunParallelContext(ctx, 4)
		if !res.Incomplete {
			t.Fatal("cancelled parallel sweep not marked incomplete")
		}
	})
	t.Run("bdd", func(t *testing.T) {
		net, run := benchClasses(t, "apex2", 1)
		res := New(net, run.Classes, Options{Engine: EngineBDD}).RunContext(ctx)
		if !res.Incomplete {
			t.Fatal("cancelled BDD sweep not marked incomplete")
		}
	})
	t.Run("cec", func(t *testing.T) {
		a, b := buildAdders(t)
		res, err := CECContext(ctx, a, b, CECOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Undecided {
			t.Fatal("cancelled CEC did not report Undecided")
		}
		if res.Equivalent {
			t.Fatal("cancelled CEC claimed equivalence")
		}
	})
}

func TestDeadlineReturnsPartialResultPromptly(t *testing.T) {
	// A workload that takes ~1s unconstrained must come back within a small
	// multiple of a 100ms deadline, with partial accounting, in both modes.
	for _, mode := range []string{"sequential", "parallel"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			net := stackedSquare(t, 3)
			runner := core.NewRunner(net, 1, 42)
			sw := New(net, runner.Classes, Options{})
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			var res Result
			if mode == "parallel" {
				res = sw.RunParallelContext(ctx, 4)
			} else {
				res = sw.RunContext(ctx)
			}
			elapsed := time.Since(start)
			// ~1.1x the deadline plus scheduling slack; far below the
			// unconstrained runtime.
			if elapsed > 600*time.Millisecond {
				t.Fatalf("deadline overrun: sweep returned after %v", elapsed)
			}
			if !res.TimedOut || !res.Incomplete {
				t.Fatalf("partial result not flagged: %s", res)
			}
			if res.FinalCost == 0 {
				t.Fatalf("suspiciously complete result under a 100ms deadline: %s", res)
			}
		})
	}
}

// TestBDDDeadline checks that a deadline interrupts BDD construction:
// b14_C's BDD sweep takes seconds unconstrained.
func TestBDDDeadline(t *testing.T) {
	net, runner := benchClasses(t, "b14_C", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := New(net, runner.Classes, Options{Engine: EngineBDD, BDDNodeLimit: 1 << 20}).RunContext(ctx)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline overrun: BDD sweep returned after %v", elapsed)
	}
	if !res.TimedOut || !res.Incomplete {
		t.Fatalf("partial result not flagged: %s", res)
	}
}

// TestCECDeadlineReportsUndecided cuts a CEC of voter against itself: 31
// inputs, too many to enumerate, and a SAT sweep of about 2 s.
func TestCECDeadlineReportsUndecided(t *testing.T) {
	b, ok := genbench.ByName("voter")
	if !ok {
		t.Fatal("benchmark voter not registered")
	}
	a1, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := CECContext(ctx, a1, a2, CECOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("CEC deadline overrun: returned after %v", elapsed)
	}
	if !res.Undecided {
		t.Fatalf("deadline-cut CEC not Undecided: sweep %s", res.Sweep)
	}
}

func TestFaultPanicParallelWorkersAreIsolated(t *testing.T) {
	// Crash every few checks: the sweep must still terminate, requeue each
	// crashed pair for a bounded retry, release the claims, and keep
	// proving the remaining pairs.
	net, run := benchClasses(t, "apex2", 1)
	var calls atomic.Int64
	sw := New(net, run.Classes, Options{
		FaultHook: func(a, b network.NodeID) Fault {
			if calls.Add(1)%7 == 0 {
				return FaultPanic
			}
			return FaultNone
		},
	})
	done := make(chan Result, 1)
	go func() { done <- sw.RunParallel(4) }()
	select {
	case res := <-done:
		if res.WorkerPanics == 0 {
			t.Fatal("no injected panic reached a worker")
		}
		if res.Requeued == 0 {
			t.Fatalf("no panicked pair was requeued: %s", res)
		}
		if res.Requeued > res.WorkerPanics {
			t.Fatalf("more requeues than panics: %s", res)
		}
		// Every panic either requeued its pair or dropped it unresolved.
		if res.Unresolved < res.WorkerPanics-res.Requeued {
			t.Fatalf("dropped panicked pairs not accounted unresolved: %s", res)
		}
		if res.Retried == 0 {
			t.Fatalf("no requeued pair was claimed again: %s", res)
		}
		if res.Proved == 0 {
			t.Fatalf("surviving workers proved nothing: %s", res)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("parallel sweep deadlocked after injected panics")
	}
}

func TestFaultPanicRetryDisabled(t *testing.T) {
	// RetryLimit < 0 restores the pre-retry contract: the first panic on a
	// pair drops it as unresolved, nothing is requeued.
	net, run := benchClasses(t, "apex2", 1)
	var calls atomic.Int64
	sw := New(net, run.Classes, Options{
		RetryLimit: -1,
		FaultHook: func(a, b network.NodeID) Fault {
			if calls.Add(1)%7 == 0 {
				return FaultPanic
			}
			return FaultNone
		},
	})
	done := make(chan Result, 1)
	go func() { done <- sw.RunParallel(4) }()
	select {
	case res := <-done:
		if res.WorkerPanics == 0 {
			t.Fatal("no injected panic reached a worker")
		}
		if res.Requeued != 0 || res.Retried != 0 {
			t.Fatalf("requeue ran with retries disabled: %s", res)
		}
		if res.Unresolved < res.WorkerPanics {
			t.Fatalf("panicked pairs not accounted unresolved: %s", res)
		}
		if res.Proved == 0 {
			t.Fatalf("surviving workers proved nothing: %s", res)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("parallel sweep deadlocked after injected panics")
	}
}

func TestFaultPanicRetryExhaustionDrops(t *testing.T) {
	// A pair that panics on every attempt must exhaust its retry budget and
	// be dropped as unresolved — requeueing is bounded, not a livelock.
	net, run := benchClasses(t, "apex2", 1)
	sw := New(net, run.Classes, Options{
		RetryLimit: 2,
		FaultHook:  func(a, b network.NodeID) Fault { return FaultPanic },
	})
	done := make(chan Result, 1)
	go func() { done <- sw.RunParallel(4) }()
	select {
	case res := <-done:
		if res.Proved != 0 || res.Disproved != 0 {
			t.Fatalf("always-panicking engine settled pairs: %s", res)
		}
		if res.Unresolved == 0 {
			t.Fatalf("exhausted pairs not dropped unresolved: %s", res)
		}
		// Each dropped pair burned exactly RetryLimit requeues first.
		if res.WorkerPanics != res.Unresolved+res.Requeued {
			t.Fatalf("panic accounting out of balance: %s", res)
		}
		if res.Retried != res.Requeued {
			t.Fatalf("requeued pairs not all re-claimed: %s", res)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("parallel sweep livelocked on an always-panicking engine")
	}
}

func TestFaultPanicSequentialPropagates(t *testing.T) {
	// Crash isolation is a parallel-worker feature; the sequential engine
	// must not silently swallow a panic.
	net, run := benchClasses(t, "apex2", 1)
	sw := New(net, run.Classes, Options{
		FaultHook: func(a, b network.NodeID) Fault { return FaultPanic },
	})
	defer func() {
		if recover() == nil {
			t.Fatal("sequential sweep swallowed the injected panic")
		}
	}()
	sw.Run()
}

func TestFaultUnknownRidesEscalationLadder(t *testing.T) {
	// A pair that fails its first call but succeeds on retry must be
	// recovered by one escalation rung.
	net, _, _ := buildRedundant()
	runner := core.NewRunner(net, 1, 5)
	failedOnce := map[[2]network.NodeID]bool{}
	sw := New(net, runner.Classes, Options{
		MaxEscalations: 1,
		FaultHook: func(a, b network.NodeID) Fault {
			key := [2]network.NodeID{a, b}
			if !failedOnce[key] {
				failedOnce[key] = true
				return FaultUnknown
			}
			return FaultNone
		},
	})
	res := sw.Run()
	if res.Escalations == 0 {
		t.Fatal("no pair rode the escalation ladder")
	}
	if res.Unresolved != 0 {
		t.Fatalf("transiently failing pairs left unresolved: %s", res)
	}
	if res.Proved < 2 {
		t.Fatalf("equivalences lost across escalation: %s", res)
	}
}

func TestFaultUnknownWithoutEscalationDropsPair(t *testing.T) {
	net, _, _ := buildRedundant()
	runner := core.NewRunner(net, 1, 5)
	sw := New(net, runner.Classes, Options{
		FaultHook: func(a, b network.NodeID) Fault { return FaultUnknown },
	})
	res := sw.Run()
	if res.Unresolved == 0 {
		t.Fatal("drop-on-budget policy did not record unresolved pairs")
	}
	if res.Proved != 0 {
		t.Fatalf("proofs appeared despite every call failing: %s", res)
	}
}

func TestFaultUnknownPersistingFallsBackToBDD(t *testing.T) {
	// A pair the SAT engine can never settle (hook keeps injecting
	// Unknown) must still be proven by the BDD fallback, which does not go
	// through the solver.
	net, equiv, _ := buildRedundant()
	runner := core.NewRunner(net, 1, 5)
	sw := New(net, runner.Classes, Options{
		MaxEscalations: 1,
		BDDFallback:    true,
		FaultHook:      func(a, b network.NodeID) Fault { return FaultUnknown },
	})
	res := sw.Run()
	if res.BDDChecks == 0 {
		t.Fatal("no pair reached the BDD fallback")
	}
	if res.Unresolved != 0 {
		t.Fatalf("BDD fallback left pairs unresolved: %s", res)
	}
	r0 := sw.Rep(equiv[0])
	for _, id := range equiv[1:] {
		if sw.Rep(id) != r0 {
			t.Fatalf("equivalent node %d not merged via BDD fallback", id)
		}
	}
}

func TestMaxPairsMarksIncomplete(t *testing.T) {
	net, run := benchClasses(t, "apex2", 1)
	res := New(net, run.Classes, Options{MaxPairs: 1}).Run()
	if res.SATCalls > 1 {
		t.Fatalf("MaxPairs ignored: %d calls", res.SATCalls)
	}
	if !res.Incomplete {
		t.Fatal("MaxPairs-truncated sweep not marked incomplete")
	}
	if res.TimedOut {
		t.Fatal("MaxPairs truncation misreported as a timeout")
	}
}

// TestMaxPairsParallelTerminates guards the cutoff exit: a worker that hits
// the SAT-call budget exits with counterexamples possibly still pooled,
// and a sibling parked on the idle condition variable must wake, see the
// cutoff, and exit too rather than sleep forever and hang the sweep's
// wg.Wait. Many workers on tiny budgets maximize the parked-at-cutoff
// window; the deadline converts a regression into a failure instead of a
// stuck suite.
func TestMaxPairsParallelTerminates(t *testing.T) {
	for i := 0; i < 5; i++ {
		net, run := benchClasses(t, "apex2", int64(i+1))
		done := make(chan Result, 1)
		go func() {
			done <- New(net, run.Classes, Options{MaxPairs: i + 1}).RunParallel(8)
		}()
		select {
		case res := <-done:
			if !res.Incomplete {
				t.Fatalf("MaxPairs=%d parallel sweep not marked incomplete", i+1)
			}
			if res.TimedOut {
				t.Fatal("MaxPairs truncation misreported as a timeout")
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("parallel sweep hung after MaxPairs=%d cutoff", i+1)
		}
	}
}
