package fuzz

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"simgen/internal/chaos"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/sweep"
)

// perturbCombos returns the seed×schedule budget of the interleaving
// sweep. The CI default (200) keeps the test around the race job's minute
// mark; nightly runs raise it via SIMGEN_PERTURB_COMBOS (make fuzz-perturb
// sets 2000).
func perturbCombos(t *testing.T) int {
	t.Helper()
	if s := os.Getenv("SIMGEN_PERTURB_COMBOS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("SIMGEN_PERTURB_COMBOS=%q is not a positive integer", s)
		}
		return n
	}
	return 200
}

// interleaveBaseline is one circuit with its sequential ground truth.
type interleaveBaseline struct {
	name   string
	net    *network.Network
	seq    *sweep.Sweeper
	seqRes sweep.Result
}

func interleaveCircuits(t *testing.T, trials int, seed int64) []interleaveBaseline {
	t.Helper()
	names := ShapeNames()
	cfg := Config{Seed: seed}
	out := make([]interleaveBaseline, 0, trials)
	for i := 0; i < trials; i++ {
		shape := Shapes()[names[i%len(names)]]
		net := Generate(rand.New(rand.NewSource(iterationSeed(seed, i))), shape)
		seq := sweep.New(net, coarseClasses(net, cfg), sweep.Options{})
		out = append(out, interleaveBaseline{
			name:   names[i%len(names)],
			net:    net,
			seq:    seq,
			seqRes: seq.Run(),
		})
	}
	return out
}

// checkEventBalance asserts the scheduler's event-vs-Result accounting for
// one recorded run: every claimed obligation ends in exactly one of
// resolve, worker-panic, or requeue, and the Result's degradation counters
// agree with the stream.
func checkEventBalance(t *testing.T, label string, rec *obs.Recorder, res sweep.Result) {
	t.Helper()
	obligations := len(rec.Filter(obs.KindObligation))
	resolves := len(rec.Filter(obs.KindResolve))
	panics := rec.Filter(obs.KindWorkerPanic)
	requeues := len(rec.Filter(obs.KindRequeue))
	if obligations != resolves+len(panics)+requeues {
		t.Fatalf("%s: %d obligations != %d resolves + %d panics + %d requeues (%s)",
			label, obligations, resolves, len(panics), requeues, res)
	}
	if res.WorkerPanics != len(panics) {
		t.Fatalf("%s: result panics %d, stream %d", label, res.WorkerPanics, len(panics))
	}
	panicRequeues := 0
	for _, ev := range panics {
		if ev.Retries > 0 {
			panicRequeues++
		}
	}
	if res.Requeued != requeues+panicRequeues {
		t.Fatalf("%s: result requeued %d, stream %d transient + %d panic-requeues",
			label, res.Requeued, requeues, panicRequeues)
	}
	retried := 0
	for _, ev := range rec.Filter(obs.KindObligation) {
		if ev.Retries > 0 {
			retried++
		}
	}
	if res.Retried != retried {
		t.Fatalf("%s: result retried %d, stream %d", label, res.Retried, retried)
	}
}

// TestInterleavingSweep is the schedule-perturbation gate: a fixed matrix
// of circuits × chaos schedules drives the parallel scheduler through
// injected yields, delays, forced flushes, spurious wakeups and — in the
// fault tranche — transient engine failures, slow timeouts, and worker
// panics. Timing-only schedules must reproduce the sequential verdicts
// exactly; fault schedules must degrade gracefully without ever merging
// unequal nodes or losing an obligation.
func TestInterleavingSweep(t *testing.T) {
	combos := perturbCombos(t)
	// 3/5 of the budget exercises pure schedule shaping (strict parity),
	// 2/5 adds faults (invariants only).
	trials := 5
	perTrial := combos / trials
	if perTrial < 2 {
		trials, perTrial = 1, combos
	}
	schedPer := (perTrial*3 + 4) / 5
	faultPer := perTrial - schedPer
	t.Logf("%d combos: %d circuits x (%d schedule + %d fault)", combos, trials, schedPer, faultPer)

	baselines := interleaveCircuits(t, trials, 1789)
	truth := make([][]int, trials)
	for i, b := range baselines {
		truth[i] = tableClasses(b.net, NodeTables(b.net))
	}
	cfg := Config{Seed: 1789}

	// Worker counts rotate per combo so the matrix also explores the
	// oversubscribed regimes where most workers are parked at any time.
	workerCounts := []int{4, 8, 16}

	for i, b := range baselines {
		for s := 0; s < schedPer; s++ {
			inj := chaos.NewSchedule(int64(i*10000+s), chaos.ScheduleProfile())
			rec := &obs.Recorder{}
			sw := sweep.New(b.net, coarseClasses(b.net, cfg), sweep.Options{Chaos: inj, Tracer: rec})
			res := sw.RunParallel(workerCounts[s%len(workerCounts)])
			label := b.name + "/sched-" + strconv.Itoa(s)
			// Schedule shaping must not change any verdict.
			if res.WorkerPanics != 0 || res.Requeued != 0 {
				t.Fatalf("%s: timing-only chaos degraded the sweep: %s", label, res)
			}
			if res.Proved != b.seqRes.Proved {
				t.Fatalf("%s: proved %d perturbed vs %d sequential — missed or extra merge",
					label, res.Proved, b.seqRes.Proved)
			}
			if res.Unresolved != b.seqRes.Unresolved {
				t.Fatalf("%s: unresolved %d perturbed vs %d sequential",
					label, res.Unresolved, b.seqRes.Unresolved)
			}
			for id := 0; id < b.net.NumNodes(); id++ {
				nid := network.NodeID(id)
				if sw.Rep(nid) != b.seq.Rep(nid) {
					t.Fatalf("%s: node %d rep %d perturbed vs %d sequential",
						label, nid, sw.Rep(nid), b.seq.Rep(nid))
				}
			}
			checkEventBalance(t, label, rec, res)
		}

		for f := 0; f < faultPer; f++ {
			inj := chaos.NewSchedule(int64(i*10000+f+5000), chaos.FaultProfile())
			rec := &obs.Recorder{}
			sw := sweep.New(b.net, coarseClasses(b.net, cfg), sweep.Options{Chaos: inj, Tracer: rec})
			res := sw.RunParallel(workerCounts[f%len(workerCounts)])
			label := b.name + "/fault-" + strconv.Itoa(f)
			checkEventBalance(t, label, rec, res)
			// Soundness survives injected faults: merged nodes must share a
			// function (transient failures may only drop pairs, never flip
			// verdicts).
			repClass := make(map[network.NodeID]int)
			for id := 0; id < b.net.NumNodes(); id++ {
				tc := truth[i][id]
				if tc < 0 {
					continue
				}
				root := sw.Rep(network.NodeID(id))
				if prev, ok := repClass[root]; ok && prev != tc {
					t.Fatalf("%s: unsound merge under faults: node %d (class %d) shares rep %d with class %d",
						label, id, tc, root, prev)
				}
				repClass[root] = tc
			}
			// Degradation is bounded: dropped pairs show up as unresolved,
			// and proved+disproved+unresolved covers everything sequential
			// settled (nothing silently vanishes).
			if res.Proved+res.Unresolved < b.seqRes.Proved {
				t.Fatalf("%s: %d proved + %d unresolved cannot cover %d sequential merges",
					label, res.Proved, res.Unresolved, b.seqRes.Proved)
			}
		}
	}
}
