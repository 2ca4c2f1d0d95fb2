package fuzz

import (
	"context"
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/pcache"
	"simgen/internal/prover"
	"simgen/internal/sweep"
)

// poisonInput is one circuit of a poisoned-cache trial, named for failure
// messages and seeded for its coarse partition.
type poisonInput struct {
	name string
	seed int64
	net  *network.Network
}

// TestPoisonedCacheSoundness runs checkPoisonedCache on random logic with
// twinned cones, whose near-duplicate cones fill the coarse classes with
// pairs the poisoned records can lie about.
func TestPoisonedCacheSoundness(t *testing.T) {
	var inputs []poisonInput
	shape := DefaultShape()
	shape.TwinBias = 0.4
	for trial := 0; trial < 8; trial++ {
		seed := int64(1000 + trial*17)
		inputs = append(inputs, poisonInput{shape.String(), seed, Generate(rand.New(rand.NewSource(seed)), shape)})
	}
	if checkPoisonedCache(t, inputs) == 0 {
		t.Fatal("no poisoned record named a constant; shapes too tame")
	}
}

// TestPoisonedWordCacheSoundness runs checkPoisonedCache on the datapath
// twins, whose sum, mux and shift word bits pair up across two
// implementations: the pairs a bottom-up sweep proves equal bit by bit.
func TestPoisonedWordCacheSoundness(t *testing.T) {
	var inputs []poisonInput
	for trial, kind := range append(DatapathKinds(), DatapathKinds()...) {
		seed := int64(500 + trial*13)
		inputs = append(inputs, poisonInput{"datapath:" + kind, seed, GenerateDatapath(rand.New(rand.NewSource(seed)), kind)})
	}
	checkPoisonedCache(t, inputs)
}

// checkPoisonedCache plants deliberately wrong Equal records in the
// verification cache — one for every pair of classified nodes (LUTs and
// constants) whose exhaustive truth tables differ, the lies a corrupted or
// stale cache could tell under a matching key — and checks that
// revalidation rejects every one: a direct probe finds and refuses each
// lie, the sweep's merges stay sound against the exhaustive ground truth,
// and its proven partition is a cache-cold oracle run's on the same
// partition. It returns how many lies named a constant.
func checkPoisonedCache(t *testing.T, inputs []poisonInput) int {
	t.Helper()
	ctx := context.Background()
	totalPoisoned, totalRejected, constLies := 0, 0, 0
	for trial, in := range inputs {
		net := in.net
		tables := NodeTables(net)
		cfg := Config{Seed: in.seed}

		// Cache-cold oracle run on an identically seeded partition.
		coldSw := sweep.New(net, coarseClasses(net, cfg), sweep.Options{})
		resCold := coldSw.Run()

		var lies [][2]network.NodeID
		for a := 0; a < net.NumNodes(); a++ {
			for b := a + 1; b < net.NumNodes(); b++ {
				if classified(net, a) && classified(net, b) && !tables[a].Equal(tables[b]) {
					lies = append(lies, [2]network.NodeID{network.NodeID(a), network.NodeID(b)})
					if net.Node(network.NodeID(a)).Kind == network.KindConst ||
						net.Node(network.NodeID(b)).Kind == network.KindConst {
						constLies++
					}
				}
			}
		}
		totalPoisoned += len(lies)

		// A direct probe must find every lie and refuse it. A refused
		// Equal record poisons every key its lies link, so each lie is
		// probed in a store that holds it alone; the store's compacting
		// Close drops the refused record before the next lie is planted.
		dir := t.TempDir()
		for _, p := range lies {
			st, err := pcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			sess := pcache.NewSession(st, net, nil)
			sess.RecordProof(p[0], p[1], prover.Equal, nil)
			if cp := sess.Probe(ctx, p[0], p[1]); cp.Hit || !cp.RevalFailed {
				t.Fatalf("trial %d (%s): poisoned record (%d, %d) not refused by revalidation: hit=%v",
					trial, in.name, p[0], p[1], cp.Hit)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}

		// The sweep runs on a store holding every lie.
		st, err := pcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sess := pcache.NewSession(st, net, nil)
		for _, p := range lies {
			sess.RecordProof(p[0], p[1], prover.Equal, nil)
		}
		sw := sweep.New(net, coarseClasses(net, cfg), sweep.Options{Cache: sess})
		res := sw.Run()
		totalRejected += res.CacheRevalFails

		// Soundness: every merge the swept union-find performed is
		// confirmed by the exhaustive node tables, and the proven
		// partition is exactly the cache-cold oracle's — rejected lies
		// fall through to the real prover. (Disproved counts are not
		// compared: cache hits change the SAT engine's learned state and
		// thus which counterexample models amplify, without affecting any
		// verdict.)
		for id := 0; id < net.NumNodes(); id++ {
			r := sw.Rep(network.NodeID(id))
			if r != network.NodeID(id) && !tables[id].Equal(tables[r]) {
				t.Fatalf("trial %d (%s): unsound merge %d -> %d under poisoned cache", trial, in.name, id, r)
			}
			if cr := coldSw.Rep(network.NodeID(id)); cr != r {
				t.Fatalf("trial %d (%s): node %d rep %d under poisoned cache, %d cache-cold", trial, in.name, id, r, cr)
			}
		}
		if res.Proved != resCold.Proved {
			t.Fatalf("trial %d (%s): poisoned-cache Proved=%d, cold oracle Proved=%d", trial, in.name, res.Proved, resCold.Proved)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if totalPoisoned == 0 {
		t.Fatal("no trial produced a poisonable pair; shapes too tame")
	}
	if totalRejected == 0 {
		t.Fatal("no poisoned record was ever probed by the sweep and rejected")
	}
	return constLies
}
