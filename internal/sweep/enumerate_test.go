package sweep_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"simgen/internal/core"
	"simgen/internal/fuzz"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/prover"
	"simgen/internal/sim"
	"simgen/internal/sweep"
)

// narrowBenchmarks are the genbench circuits with at most
// prover.DefaultSimPIs inputs: the ones Refine enumerates.
var narrowBenchmarks = []string{"apex4", "dec", "ex1010", "ex5p", "sin", "square"}

// narrowNetworks returns the narrow benchmarks and n fuzz networks, the
// shapes taking turns.
func narrowNetworks(t *testing.T, n int) []*network.Network {
	t.Helper()
	var nets []*network.Network
	for _, name := range narrowBenchmarks {
		nets = append(nets, loadBench(t, name))
	}
	shapes, names := fuzz.Shapes(), fuzz.ShapeNames()
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < n; i++ {
		nets = append(nets, fuzz.Generate(rand.New(rand.NewSource(rng.Int63())), shapes[names[i%len(names)]]))
	}
	return nets
}

// checkFunctionalClasses fails unless the partition's classes are exactly
// the nodes' functions: two classified nodes share a class if and only if
// the reference evaluator gives them the same truth table.
func checkFunctionalClasses(t *testing.T, net *network.Network, c *sim.Classes) {
	t.Helper()
	inputs, nwords := sim.ExhaustiveInputs(net)
	vals := sim.Reference(net, inputs, nwords)
	classOfTable := map[string]int{}
	tableOfClass := map[int]string{}
	for id := 0; id < net.NumNodes(); id++ {
		ci := c.ClassOf(network.NodeID(id))
		if ci < 0 {
			continue
		}
		key := fmt.Sprint(vals[id])
		if prev, ok := classOfTable[key]; ok && prev != ci {
			t.Fatalf("%s: node %d shares its truth table with class %d but sits in class %d", net.Name, id, prev, ci)
		}
		if prev, ok := tableOfClass[ci]; ok && prev != key {
			t.Fatalf("%s: class %d holds node %d, whose truth table differs from its other members'", net.Name, ci, id)
		}
		classOfTable[key], tableOfClass[ci] = ci, key
	}
}

// reducedBLIF sweeps the partition and writes the reduced network.
func reducedBLIF(t *testing.T, net *network.Network, classes *sim.Classes, opts sweep.Options) ([]byte, sweep.Result) {
	t.Helper()
	sw := sweep.New(net, classes, opts)
	res := sw.Run()
	return writeBLIF(t, sweep.Apply(net, sw.Rep)), res
}

// TestEnumeratedFlowMatchesPaperFlow is the differential test of the
// enumerated path. On every narrow genbench circuit and on fuzz networks
// of every shape, Refine's exhaustive start must give exactly the
// functional classes (checked against the reference evaluator), its sweep
// must merge them all with no engine call, and the reduced BLIF must be
// byte-identical to that of the paper's flow: a random round, SimGen, then
// a SAT sweep.
func TestEnumeratedFlowMatchesPaperFlow(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 25
	}
	ctx := context.Background()
	opts := sweep.DefaultCECOptions()
	for _, net := range narrowNetworks(t, n) {
		if net.NumPIs() > prover.DefaultSimPIs {
			t.Fatalf("%s has %d inputs", net.Name, net.NumPIs())
		}
		ref, err := sweep.Refine(ctx, net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Exact() || ref.Guided != nil || ref.Run.Stopped() != core.StopExact {
			t.Fatalf("%s: Refine did not enumerate (exact %v, %d guided, stopped %v)",
				net.Name, ref.Exact(), len(ref.Guided), ref.Run.Stopped())
		}
		checkFunctionalClasses(t, net, ref.Run.Classes)
		cost := ref.Run.Classes.Cost()
		got, res := reducedBLIF(t, net, ref.Run.Classes, opts.Sweep)
		if res.Enumerated != cost || res.Scheduled != 0 || res.Proved != 0 || res.SATCalls != 0 || res.FinalCost != 0 {
			t.Fatalf("%s: enumerated sweep %s, scheduled %d, final cost %d; want %d enumerated and nothing else",
				net.Name, res, res.Scheduled, res.FinalCost, cost)
		}

		run := core.NewRunner(net, 1, opts.Seed)
		run.RunContext(ctx, core.NewGenerator(net, core.StrategySimGen, opts.Seed+1), opts.GuidedIterations)
		want, paper := reducedBLIF(t, net, run.Classes, opts.Sweep)
		if paper.Unresolved != 0 || paper.Enumerated != 0 {
			t.Fatalf("%s: paper flow %s", net.Name, paper)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reduced BLIF differs from the paper flow's\n got %s\nwant %s", net.Name, got, want)
		}
	}
}

// recordingCache is a Cache that records which of its methods ran.
type recordingCache struct {
	prover.Prober
	replays, records int
}

func (c *recordingCache) RecordPatterns([][]bool, int) { c.records++ }

func (c *recordingCache) Replay(context.Context, *core.Runner) int {
	c.replays++
	return 0
}

// TestRefineStart checks where Refine switches start: at
// prover.DefaultSimPIs inputs it enumerates, skipping the random rounds,
// the method and the cache's replay and recording; one input more, it
// runs the paper's random round and guided generation.
func TestRefineStart(t *testing.T) {
	ctx := context.Background()
	for _, pis := range []int{prover.DefaultSimPIs, prover.DefaultSimPIs + 1} {
		sh := fuzz.DefaultShape()
		sh.PIs, sh.Nodes = pis, 120
		net := fuzz.Generate(rand.New(rand.NewSource(int64(pis))), sh)
		cache := &recordingCache{}
		opts := sweep.DefaultCECOptions()
		opts.RandomRounds, opts.Method = 3, "revs"
		opts.Sweep.Cache = cache
		ref, err := sweep.Refine(ctx, net, opts)
		if err != nil {
			t.Fatal(err)
		}
		narrow := pis <= prover.DefaultSimPIs
		if ref.Exact() != narrow {
			t.Fatalf("%d inputs: exact %v", pis, ref.Exact())
		}
		if narrow {
			if cache.replays != 0 || cache.records != 0 || ref.Guided != nil || ref.InitialCost != ref.Run.Classes.Cost() {
				t.Errorf("%d inputs: %d replays, %d records, %d guided iterations, initial cost %d of %d",
					pis, cache.replays, cache.records, len(ref.Guided), ref.InitialCost, ref.Run.Classes.Cost())
			}
		} else if cache.replays != 1 || len(ref.Guided) == 0 {
			t.Errorf("%d inputs: %d replays, %d guided iterations; want the paper's flow", pis, cache.replays, len(ref.Guided))
		}
	}
}

// TestEnumerateEvent checks the scheduler's pre-pass on an exact partition
// at one and four workers: one enumerate event carrying the inputs, the
// merges and the time, every merge counted once in Result.Enumerated and
// in the Collector's report and metrics, and no obligation scheduled.
func TestEnumerateEvent(t *testing.T) {
	net := loadBench(t, "square")
	for _, workers := range []int{1, 4} {
		ref, err := sweep.Refine(context.Background(), net, sweep.DefaultCECOptions())
		if err != nil {
			t.Fatal(err)
		}
		cost := ref.Run.Classes.Cost()
		rec, m := &obs.Recorder{}, obs.NewMetrics()
		mt := obs.NewMetricsTracer(m)
		res := sweep.New(net, ref.Run.Classes, sweep.Options{Tracer: obs.Multi(rec, mt)}).RunParallel(workers)
		evs := rec.Filter(obs.KindEnumerate)
		if len(evs) != 1 || int(evs[0].PIs) != net.NumPIs() || int(evs[0].Merges) != cost || evs[0].Dur <= 0 {
			t.Fatalf("workers=%d: enumerate events %+v, want one with %d inputs and %d merges", workers, evs, net.NumPIs(), cost)
		}
		if res.Enumerated != cost || res.Scheduled != 0 || len(rec.Filter(obs.KindObligation)) != 0 {
			t.Errorf("workers=%d: %s, %d scheduled", workers, res, res.Scheduled)
		}
		if got := mt.Report().Enumerated; got != res.Enumerated {
			t.Errorf("workers=%d: report enumerated %d, result %d", workers, got, res.Enumerated)
		}
		if got := m.Snapshot()["sweep.enumerated"]; got != int64(res.Enumerated) {
			t.Errorf("workers=%d: metric sweep.enumerated %d, result %d", workers, got, res.Enumerated)
		}
	}
}

// TestCECEnumerated checks CEC on narrow circuits: an equivalent pair is
// settled by enumeration on the combined network with no engine call, and
// an inequivalent pair still gets its counterexample from the engine.
func TestCECEnumerated(t *testing.T) {
	a := loadBench(t, "sin")
	res, err := sweep.CEC(a, loadBench(t, "sin"), sweep.DefaultCECOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || res.POCalls != 0 || res.Sweep.SATCalls != 0 || res.Sweep.Enumerated == 0 {
		t.Fatalf("sin vs sin: equivalent %v, %d PO calls, sweep %s", res.Equivalent, res.POCalls, res.Sweep)
	}

	mutant, site := fuzz.Mutate(rand.New(rand.NewSource(3)), a)
	res, err = sweep.CEC(a, mutant, sweep.DefaultCECOptions())
	if err != nil {
		t.Fatal(err)
	}
	differ, _ := sweep.VerifyCounterexample(a, mutant, res.Counterexample)
	if res.Equivalent || res.Undecided || !differ || res.POCalls == 0 || res.Sweep.Enumerated == 0 {
		t.Fatalf("sin vs mutant (%s): equivalent %v, undecided %v, counterexample separates %v, %d PO calls, sweep %s",
			site, res.Equivalent, res.Undecided, differ, res.POCalls, res.Sweep)
	}
}
