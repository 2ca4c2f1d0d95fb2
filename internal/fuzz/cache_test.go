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

// TestPoisonedCacheSoundness plants deliberately wrong Equal records in
// the verification cache — entries whose NPN keys match real candidate
// pairs but whose functions provably differ — and checks that
// revalidation rejects every one: the sweep's merges stay sound against
// the exhaustive ground truth and its verdict counts match a cache-cold
// oracle run on the same partition.
func TestPoisonedCacheSoundness(t *testing.T) {
	shape := DefaultShape()
	shape.TwinBias = 0.4
	ctx := context.Background()
	totalPoisoned, totalRejected := 0, 0
	for trial := 0; trial < 8; trial++ {
		seed := int64(1000 + trial*17)
		rng := rand.New(rand.NewSource(seed))
		net := Generate(rng, shape)
		tables := NodeTables(net)
		cfg := Config{Seed: seed}

		// Cache-cold oracle run on an identically seeded partition.
		coldSw := sweep.New(net, coarseClasses(net, cfg), sweep.Options{})
		resCold := coldSw.Run()

		// Poison: record Equal for every candidate pair whose exhaustive
		// truth tables differ — exactly the lies a corrupted or stale
		// cache would tell under a matching key.
		st, err := pcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sess := pcache.NewSession(st, net, nil)
		classes := coarseClasses(net, cfg)
		poisoned := 0
		var badA, badB network.NodeID
		for _, ci := range classes.NonSingleton() {
			members := classes.Members(ci)
			rep := members[0]
			for _, m := range members[1:] {
				if !tables[rep].Equal(tables[m]) {
					sess.RecordProof(rep, m, prover.Equal, nil)
					badA, badB = rep, m
					poisoned++
				}
			}
		}
		totalPoisoned += poisoned

		if poisoned > 0 {
			// A direct probe must refuse the lie before any sweep runs.
			if cp := sess.Probe(ctx, badA, badB); cp.Hit {
				t.Fatalf("trial %d: poisoned record (%d, %d) accepted by direct probe", trial, badA, badB)
			}
		}

		sw := sweep.New(net, classes, sweep.Options{Cache: sess})
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
				t.Fatalf("trial %d: unsound merge %d -> %d under poisoned cache", trial, id, r)
			}
			if cr := coldSw.Rep(network.NodeID(id)); cr != r {
				t.Fatalf("trial %d: node %d rep %d under poisoned cache, %d cache-cold", trial, id, r, cr)
			}
		}
		if res.Proved != resCold.Proved {
			t.Fatalf("trial %d: poisoned-cache Proved=%d, cold oracle Proved=%d", trial, res.Proved, resCold.Proved)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if totalPoisoned == 0 {
		t.Fatal("no trial produced a poisonable candidate pair; shape too tame")
	}
	if totalRejected == 0 {
		t.Fatal("no poisoned record was ever probed and rejected")
	}
}
