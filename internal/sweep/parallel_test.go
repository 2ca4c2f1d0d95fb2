package sweep

import (
	"slices"
	"testing"

	"simgen/internal/core"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/sim"
)

func TestParallelSweepVerdictsMatchSequential(t *testing.T) {
	for _, name := range []string{"apex2", "pdc"} {
		b, _ := genbench.ByName(name)

		netSeq, _ := b.LUTNetwork()
		runSeq := core.NewRunner(netSeq, 1, 42)
		seq := New(netSeq, runSeq.Classes, Options{})
		seqRes := seq.Run()

		netPar, _ := b.LUTNetwork()
		runPar := core.NewRunner(netPar, 1, 42)
		par := New(netPar, runPar.Classes, Options{})
		parRes := par.RunParallel(4)

		// The networks are identical (deterministic generator), so the
		// proven-equivalence relations must agree node by node.
		if netSeq.NumNodes() != netPar.NumNodes() {
			t.Fatal("generator not deterministic")
		}
		for id := 0; id < netSeq.NumNodes(); id++ {
			nid := network.NodeID(id)
			if (seq.Rep(nid) == nid) != (par.Rep(nid) == nid) {
				t.Fatalf("%s: node %d merged in one engine only", name, nid)
			}
		}
		if seqRes.Proved != parRes.Proved {
			t.Fatalf("%s: proofs differ: %d vs %d", name, seqRes.Proved, parRes.Proved)
		}
		// Both must fully resolve the classes.
		if parRes.FinalCost != seqRes.FinalCost {
			t.Fatalf("%s: final cost differs: %d vs %d", name, seqRes.FinalCost, parRes.FinalCost)
		}
	}
}

func TestParallelSweepSoundness(t *testing.T) {
	// Merged nodes must be equivalent under random simulation.
	b, _ := genbench.ByName("spla")
	net, _ := b.LUTNetwork()
	run := core.NewRunner(net, 1, 7)
	sw := New(net, run.Classes, Options{})
	sw.RunParallel(8)
	vals := sim.Simulate(net, sim.RandomInputs(net, 4, newRng(3)), 4)
	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		rep := sw.Rep(nid)
		if rep == nid {
			continue
		}
		for w := 0; w < 4; w++ {
			if vals[rep][w] != vals[nid][w] {
				t.Fatalf("merged pair %d/%d differs under simulation", nid, rep)
			}
		}
	}
}

func TestParallelSingleWorkerFallsBack(t *testing.T) {
	net, _, _ := buildRedundant()
	run := core.NewRunner(net, 1, 5)
	sw := New(net, run.Classes, Options{})
	res := sw.RunParallel(1)
	if res.SATCalls == 0 {
		t.Fatal("no work done")
	}
}

// TestSnapshotShallowestFirst: every worker drains the snapshot byLevel
// builds, ordered by the deeper level of each class's next pair with ties
// in NonSingleton's largest-first order. byLevel sorts a copy: the
// partition's cached NonSingleton slice must come back unchanged.
func TestSnapshotShallowestFirst(t *testing.T) {
	b, _ := genbench.ByName("pdc")
	net, _ := b.LUTNetwork()
	run := core.NewRunner(net, 1, 42)
	sw := New(net, run.Classes, Options{})
	ns := run.Classes.NonSingleton()
	before := slices.Clone(ns)
	snap := sw.sched.byLevel()
	if !slices.Equal(ns, before) {
		t.Fatal("byLevel reordered the partition's cached NonSingleton slice")
	}
	rank := make(map[int]int, len(ns))
	for i, ci := range ns {
		rank[ci] = i
	}
	depth := func(ci int) int {
		m := run.Classes.Members(ci)
		return max(net.Level(m[0]), net.Level(m[1]))
	}
	seen := make(map[int]bool, len(snap))
	for i, ci := range snap {
		if _, ok := rank[ci]; !ok || seen[ci] {
			t.Fatalf("snapshot entry %d: class %d is not a distinct non-singleton class", i, ci)
		}
		seen[ci] = true
		if i == 0 {
			continue
		}
		prev := snap[i-1]
		if dp, dc := depth(prev), depth(ci); dp > dc || dp == dc && rank[prev] > rank[ci] {
			t.Fatalf("snapshot entries %d, %d: class %d (depth %d) before class %d (depth %d)",
				i-1, i, prev, dp, ci, dc)
		}
	}
	if len(snap) != len(ns) {
		t.Fatalf("snapshot holds %d classes, the partition %d", len(snap), len(ns))
	}
	if depth(snap[0]) == depth(snap[len(snap)-1]) {
		t.Fatal("every class at one depth: the order is not exercised")
	}
}
