package sweep_test

import (
	"math/rand"
	"testing"

	"simgen/internal/chaos"
	"simgen/internal/fuzz"
	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/sweep"
)

// TestInterleavingSweepCatchesStaleExit proves the interleaving harness
// (internal/fuzz TestInterleavingSweep) has teeth: with the pre-fix
// termination protocol restored, the same circuits under the same chaos
// schedules must reproduce the missed-merge race — a parallel run that
// terminates early and disagrees with the sequential baseline — within the
// first 50 combos.
func TestInterleavingSweepCatchesStaleExit(t *testing.T) {
	const (
		maxCombos = 50
		seed      = 1789
		circuits  = 5
	)
	type baseline struct {
		name   string
		net    *network.Network
		seq    *sweep.Sweeper
		seqRes sweep.Result
	}
	names := fuzz.ShapeNames()
	baselines := make([]baseline, circuits)
	for i := range baselines {
		name := names[i%len(names)]
		net := fuzz.Generate(rand.New(rand.NewSource(iterationSeed(seed, i))), fuzz.Shapes()[name])
		seq := sweep.New(net, coarseClasses(net, seed), sweep.Options{})
		baselines[i] = baseline{name: name, net: net, seq: seq, seqRes: seq.Run()}
	}

	defer sweep.SetUnsafeStaleExit(true)()
	combo := 0
	for s := 0; combo < maxCombos; s++ {
		for i, b := range baselines {
			if combo >= maxCombos {
				break
			}
			combo++
			inj := chaos.NewSchedule(int64(i*10000+s), chaos.ScheduleProfile())
			sw := sweep.New(b.net, coarseClasses(b.net, seed), sweep.Options{Chaos: inj})
			res := sw.RunParallel(4)
			if res.WorkerPanics != 0 || res.Requeued != 0 {
				t.Fatalf("%s: timing-only chaos injected faults: %s", b.name, res)
			}
			if res.Proved != b.seqRes.Proved {
				t.Logf("stale-exit race caught at combo %d (%s/schedule %d): proved %d vs %d sequential",
					combo, b.name, s, res.Proved, b.seqRes.Proved)
				return
			}
			for id := 0; id < b.net.NumNodes(); id++ {
				nid := network.NodeID(id)
				if sw.Rep(nid) != b.seq.Rep(nid) {
					t.Logf("stale-exit race caught at combo %d (%s/schedule %d): node %d rep diverged",
						combo, b.name, s, nid)
					return
				}
			}
		}
	}
	t.Fatalf("the stale-exit protocol survived %d perturbed combos: the interleaving matrix lost its teeth", maxCombos)
}

// iterationSeed and coarseClasses reproduce the fuzz harness's circuit
// seeding and its default four-vector candidate partition, so this test
// sweeps exactly the circuits and classes TestInterleavingSweep does.
func iterationSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func coarseClasses(net *network.Network, seed int64) *sim.Classes {
	const nvec = 4
	inputs := sim.RandomInputs(net, 1, rand.New(rand.NewSource(seed)))
	for i := range inputs {
		for w, word := range inputs[i] {
			var out uint64
			for j := 0; j < 64; j++ {
				out |= (word >> uint(j%nvec) & 1) << uint(j)
			}
			inputs[i][w] = out
		}
	}
	return sim.NewClasses(net, sim.Simulate(net, inputs, 1))
}
