package fuzz

import (
	"math/rand"
	"strings"
	"testing"

	"simgen/internal/blif"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/prover"
	"simgen/internal/sweep"
)

// netString renders a network canonically for structural comparison.
func netString(t *testing.T, net *network.Network) string {
	t.Helper()
	var b strings.Builder
	if err := blif.Write(&b, net); err != nil {
		t.Fatalf("write blif: %v", err)
	}
	return b.String()
}

// TestSchedulerParitySequentialVsParallel is the unified-scheduler parity
// gate: with unlimited budgets, the same network and seed must produce the
// identical proven-pair set (hence identical representative mapping — the
// union-find always roots a merge group at its smallest node id) and the
// identical sweep.Apply reduction for workers=1 and workers=4, across every
// fuzz preset.
func TestSchedulerParitySequentialVsParallel(t *testing.T) {
	cfg := Config{Seed: 99}
	for _, name := range ShapeNames() {
		shape := Shapes()[name]
		for trial := 0; trial < 3; trial++ {
			seed := iterationSeed(99, trial)
			net := Generate(rand.New(rand.NewSource(seed)), shape)

			seq := sweep.New(net, coarseClasses(net, cfg), sweep.Options{})
			seqRes := seq.Run()
			par := sweep.New(net, coarseClasses(net, cfg), sweep.Options{})
			parRes := par.RunParallel(4)

			if seqRes.Proved != parRes.Proved {
				t.Fatalf("%s/%d: proved %d sequential vs %d parallel",
					name, trial, seqRes.Proved, parRes.Proved)
			}
			for id := 0; id < net.NumNodes(); id++ {
				nid := network.NodeID(id)
				if seq.Rep(nid) != par.Rep(nid) {
					t.Fatalf("%s/%d: node %d rep %d sequential vs %d parallel",
						name, trial, nid, seq.Rep(nid), par.Rep(nid))
				}
			}
			seqApply := netString(t, sweep.Apply(net, seq.Rep))
			parApply := netString(t, sweep.Apply(net, par.Rep))
			if seqApply != parApply {
				t.Fatalf("%s/%d: sweep.Apply output differs between workers=1 and workers=4",
					name, trial)
			}
		}
	}
}

// TestSchedulerParityHighWorkerCount re-runs the parity gate at workers=16
// — well past the core count of any CI runner, so most workers are parked
// most of the time and every oversubscription pathology (a worker parking
// while a sibling's pending counterexample or in-flight merge holds the
// last work) gets exercised. The proven-pair set and representative
// mapping must still be identical to the sequential sweep.
func TestSchedulerParityHighWorkerCount(t *testing.T) {
	cfg := Config{Seed: 271}
	for _, name := range ShapeNames() {
		shape := Shapes()[name]
		seed := iterationSeed(271, 0)
		net := Generate(rand.New(rand.NewSource(seed)), shape)

		seq := sweep.New(net, coarseClasses(net, cfg), sweep.Options{})
		seqRes := seq.Run()
		rec := &obs.Recorder{}
		par := sweep.New(net, coarseClasses(net, cfg), sweep.Options{Tracer: rec})
		parRes := par.RunParallel(16)

		if seqRes.Proved != parRes.Proved {
			t.Fatalf("%s: proved %d sequential vs %d at workers=16", name, seqRes.Proved, parRes.Proved)
		}
		if seqRes.Unresolved != parRes.Unresolved {
			t.Fatalf("%s: unresolved %d sequential vs %d at workers=16", name, seqRes.Unresolved, parRes.Unresolved)
		}
		for id := 0; id < net.NumNodes(); id++ {
			nid := network.NodeID(id)
			if seq.Rep(nid) != par.Rep(nid) {
				t.Fatalf("%s: node %d rep %d sequential vs %d at workers=16",
					name, nid, seq.Rep(nid), par.Rep(nid))
			}
		}
		seqApply := netString(t, sweep.Apply(net, seq.Rep))
		parApply := netString(t, sweep.Apply(net, par.Rep))
		if seqApply != parApply {
			t.Fatalf("%s: sweep.Apply output differs between workers=1 and workers=16", name)
		}
		// Every claim is an event, however many workers race for them.
		if n := len(rec.Filter(obs.KindObligation)); n != parRes.Scheduled {
			t.Fatalf("%s: result scheduled %d, stream %d", name, parRes.Scheduled, n)
		}
	}
}

// TestSequentialTraceGoldenStable pins the workers=1 trace contract the
// committed goldens (internal/obs/testdata/traces) rely on: a sequential
// sweep under a deterministic JSONL tracer is a pure function of the
// circuit — two runs produce byte-identical streams.
func TestSequentialTraceGoldenStable(t *testing.T) {
	cfg := Config{Seed: 99}
	for _, name := range ShapeNames() {
		shape := Shapes()[name]
		seed := iterationSeed(99, 0)

		trace := func() string {
			net := Generate(rand.New(rand.NewSource(seed)), shape)
			var b strings.Builder
			tr := obs.NewJSONL(&b)
			tr.Deterministic = true
			sweep.New(net, coarseClasses(net, cfg), sweep.Options{Tracer: tr}).Run()
			if err := tr.Err(); err != nil {
				t.Fatalf("%s: trace write: %v", name, err)
			}
			return b.String()
		}
		first, second := trace(), trace()
		if first != second {
			t.Fatalf("%s: sequential deterministic traces differ between identical runs", name)
		}
	}
}

// equalResolveMultiset reduces a recorded event stream to the multiset of
// equal-verdict resolve events keyed on (a, b). Parallel workers claim
// obligations in timing-dependent order, so differ/unknown obligations vary
// between runs (a delayed pool flush reshapes later classes) — but the
// proven-pair set is the union-find's merge forest, which the parity
// guarantee pins down exactly.
func equalResolveMultiset(r *obs.Recorder) map[[2]int32]int {
	m := make(map[[2]int32]int)
	for _, ev := range r.Filter(obs.KindResolve) {
		if ev.Verdict == obs.VerdictEqual {
			m[[2]int32{ev.A, ev.B}]++
		}
	}
	return m
}

// TestResolveEventParitySequentialVsParallel extends the scheduler parity
// gate down to the event stream: workers=1 and workers=4 must emit the same
// multiset of equal-verdict resolve events, and the event-level balance
// #obligation == #resolve + #worker_panic + #requeue must hold in both
// modes (every claimed obligation ends in exactly one of the three).
func TestResolveEventParitySequentialVsParallel(t *testing.T) {
	cfg := Config{Seed: 99}
	for _, name := range ShapeNames() {
		shape := Shapes()[name]
		for trial := 0; trial < 3; trial++ {
			seed := iterationSeed(99, trial)
			net := Generate(rand.New(rand.NewSource(seed)), shape)

			seqRec, parRec := &obs.Recorder{}, &obs.Recorder{}
			sweep.New(net, coarseClasses(net, cfg), sweep.Options{Tracer: seqRec}).Run()
			sweep.New(net, coarseClasses(net, cfg), sweep.Options{Tracer: parRec}).RunParallel(4)

			for mode, rec := range map[string]*obs.Recorder{"sequential": seqRec, "parallel": parRec} {
				obligations := len(rec.Filter(obs.KindObligation))
				resolved := len(rec.Filter(obs.KindResolve)) +
					len(rec.Filter(obs.KindWorkerPanic)) +
					len(rec.Filter(obs.KindRequeue))
				if obligations != resolved {
					t.Fatalf("%s/%d %s: %d obligations claimed but %d resolved, dropped, or requeued",
						name, trial, mode, obligations, resolved)
				}
			}

			seqSet, parSet := equalResolveMultiset(seqRec), equalResolveMultiset(parRec)
			if len(seqSet) != len(parSet) {
				t.Fatalf("%s/%d: %d distinct equal-resolve events sequential vs %d parallel",
					name, trial, len(seqSet), len(parSet))
			}
			for key, n := range seqSet {
				if parSet[key] != n {
					t.Fatalf("%s/%d: resolve(a=%d b=%d verdict=equal) seen %d times sequential, %d parallel",
						name, trial, key[0], key[1], n, parSet[key])
				}
			}
		}
	}
}

// TestPortfolioResolvesTightBudgetPairs is the ISSUE acceptance check: on a
// fuzz preset under a tight conflict budget, the SAT-only engine abandons
// pairs as Unresolved while the portfolio — free simulation proofs for
// small-support pairs plus the BDD fallback — resolves them.
func TestPortfolioResolvesTightBudgetPairs(t *testing.T) {
	cfg := Config{Seed: 5}
	tight := sweep.Options{ConflictBudget: 1}
	shape := Shapes()["xor-heavy"]
	found := false
	for trial := 0; trial < 20 && !found; trial++ {
		seed := iterationSeed(5, trial)
		net := Generate(rand.New(rand.NewSource(seed)), shape)

		satOnly := sweep.New(net, coarseClasses(net, cfg), tight)
		satRes := satOnly.Run()
		if satRes.Unresolved == 0 {
			continue // SAT settled everything within one conflict; try another circuit
		}
		found = true

		portOpts := tight
		portOpts.Engine = sweep.EnginePortfolio
		port := sweep.New(net, coarseClasses(net, cfg), portOpts)
		portRes := port.Run()
		if portRes.Unresolved >= satRes.Unresolved {
			t.Fatalf("portfolio left %d pairs unresolved, SAT-only left %d — portfolio must resolve more",
				portRes.Unresolved, satRes.Unresolved)
		}
		if portRes.SimChecks == 0 && portRes.BDDChecks == 0 {
			t.Fatal("portfolio resolved extra pairs without using its sim or BDD stages")
		}
		t.Logf("trial %d: sat-only unresolved=%d, portfolio unresolved=%d (simchecks=%d bddchecks=%d)",
			trial, satRes.Unresolved, portRes.Unresolved, portRes.SimChecks, portRes.BDDChecks)
	}
	if !found {
		t.Fatal("no circuit produced unresolved pairs under a 1-conflict budget; test is vacuous")
	}
}

// TestUnsoundPortfolioCaught re-runs the -inject-unsound self-test with the
// portfolio engine selected, proving the differential oracle still catches
// an unsound verdict that travels through the portfolio's SAT stage. The
// circuits have 14 inputs, so pairs whose support exceeds the simulation
// stage's cutoff (prover.DefaultSimPIs) reach the SAT stage.
func TestUnsoundPortfolioCaught(t *testing.T) {
	fired := false
	cfg := Config{
		ResetFault: func() { fired = false },
		SweepOpts: sweep.Options{
			Engine: sweep.EnginePortfolio,
			FaultHook: func(a, b network.NodeID) prover.Fault {
				if !fired {
					fired = true
					return prover.FaultAssumeEqual
				}
				return prover.FaultNone
			},
		},
	}
	for i := 0; i < 200; i++ {
		seed := iterationSeed(4242, i)
		shape := Shapes()[ShapeNames()[i%len(ShapeNames())]]
		shape.PIs = prover.DefaultSimPIs + 2
		net := Generate(rand.New(rand.NewSource(seed)), shape)
		if failure := CheckDifferential(net, cfg); failure != nil {
			if failure.Check != "unsound-merge" && failure.Check != "missed-merge" &&
				failure.Check != "apply-mismatch" {
				t.Fatalf("unexpected failure kind %q: %s", failure.Check, failure.Detail)
			}
			t.Logf("caught at iteration %d: %s", i, failure.Check)
			return
		}
	}
	t.Fatal("unsound portfolio survived 200 fuzzing iterations undetected")
}
