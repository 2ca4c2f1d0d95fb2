package fuzz

import (
	"context"
	"math/rand"
	"testing"

	"simgen/internal/network"
	"simgen/internal/pcache"
	"simgen/internal/prover"
	"simgen/internal/sweep"
	"simgen/internal/word"
)

// wordSweepOpts is the word-enabled configuration the datapath cache tests
// run under: the word engine has no sim stage, so every obligation reaches
// the cache probe and the word stage.
func wordSweepOpts() sweep.Options {
	return sweep.Options{Engine: sweep.EngineWord}
}

// TestWordProofCacheRoundTrip: verdicts settled by the word-staged
// portfolio are recorded in the verification cache and replayed — with
// revalidation — by a later run over the same circuit, reproducing the
// identical partition.
func TestWordProofCacheRoundTrip(t *testing.T) {
	for _, kind := range DatapathKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			net := GenerateDatapath(rng, kind)
			cfg := Config{Seed: 42}

			st, err := pcache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			opts := wordSweepOpts()
			opts.Cache = pcache.NewSession(st, net, nil)
			first := sweep.New(net, coarseClasses(net, cfg), opts)
			resFirst := first.Run()
			if resFirst.Proved == 0 {
				t.Fatal("first run proved nothing; circuit too tame for a cache test")
			}

			opts.Cache = pcache.NewSession(st, net, nil)
			second := sweep.New(net, coarseClasses(net, cfg), opts)
			resSecond := second.Run()
			if resSecond.CacheHits == 0 {
				t.Fatal("second run hit nothing: word-settled proofs were not recorded")
			}
			if resSecond.CacheRevalFails != 0 {
				t.Fatalf("%d honest records failed revalidation", resSecond.CacheRevalFails)
			}
			for id := 0; id < net.NumNodes(); id++ {
				if first.Rep(network.NodeID(id)) != second.Rep(network.NodeID(id)) {
					t.Fatalf("node %d: partition diverged between cold and cached runs", id)
				}
			}
		})
	}
}

// TestPoisonedWordCacheSoundness is the word-engine twin of
// TestPoisonedCacheSoundness: it plants false word-equal records — Equal
// verdicts for bit pairs inside detected words whose exhaustive truth
// tables differ — and checks that revalidation rejects every one before
// the word-staged portfolio may act on it. The proven partition must be
// exactly the cache-cold run's.
func TestPoisonedWordCacheSoundness(t *testing.T) {
	ctx := context.Background()
	totalInWord, totalRejected := 0, 0
	for trial, kind := range append(DatapathKinds(), DatapathKinds()...) {
		seed := int64(500 + trial*13)
		rng := rand.New(rand.NewSource(seed))
		net := GenerateDatapath(rng, kind)
		tables := NodeTables(net)
		str := word.Detect(net)
		cfg := Config{Seed: seed}

		// Cache-cold oracle run on an identically seeded partition.
		coldSw := sweep.New(net, coarseClasses(net, cfg), wordSweepOpts())
		resCold := coldSw.Run()

		st, err := pcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sess := pcache.NewSession(st, net, nil)

		// Poison 1: every differing pair of bits inside a detected word —
		// the exact lies an unsound word engine would have cached.
		var wordPairs [][2]network.NodeID
		for _, cand := range str.Cands {
			for i := 0; i < len(cand.Bits); i++ {
				for j := i + 1; j < len(cand.Bits); j++ {
					a, b := cand.Bits[i].Node, cand.Bits[j].Node
					if !tables[a].Equal(tables[b]) {
						sess.RecordProof(a, b, prover.Equal, nil)
						wordPairs = append(wordPairs, [2]network.NodeID{a, b})
					}
				}
			}
		}
		totalInWord += len(wordPairs)

		// Poison 2: differing pairs inside coarse classes, so the sweep
		// itself probes some of the lies.
		classes := coarseClasses(net, cfg)
		for _, ci := range classes.NonSingleton() {
			members := classes.Members(ci)
			rep := members[0]
			for _, m := range members[1:] {
				if !tables[rep].Equal(tables[m]) {
					sess.RecordProof(rep, m, prover.Equal, nil)
				}
			}
		}

		// Every false word-equal must be refused on a direct probe.
		for _, p := range wordPairs {
			if cp := sess.Probe(ctx, p[0], p[1]); cp.Hit {
				t.Fatalf("trial %d (%s): false word-equal (%d, %d) accepted by probe",
					trial, kind, p[0], p[1])
			}
			totalRejected++
		}

		opts := wordSweepOpts()
		opts.Cache = sess
		sw := sweep.New(net, classes, opts)
		res := sw.Run()

		for id := 0; id < net.NumNodes(); id++ {
			r := sw.Rep(network.NodeID(id))
			if r != network.NodeID(id) && !tables[id].Equal(tables[r]) {
				t.Fatalf("trial %d (%s): unsound merge %d -> %d under poisoned word cache",
					trial, kind, id, r)
			}
			if cr := coldSw.Rep(network.NodeID(id)); cr != r {
				t.Fatalf("trial %d (%s): node %d rep %d poisoned, %d cold",
					trial, kind, id, r, cr)
			}
		}
		if res.Proved != resCold.Proved {
			t.Fatalf("trial %d (%s): poisoned Proved=%d, cold Proved=%d",
				trial, kind, res.Proved, resCold.Proved)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if totalInWord == 0 {
		t.Fatal("no trial produced a differing in-word pair to poison")
	}
	if totalRejected == 0 {
		t.Fatal("no false word-equal record was ever rejected")
	}
}
