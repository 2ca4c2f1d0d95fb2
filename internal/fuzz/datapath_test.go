package fuzz

import (
	"math/rand"
	"strings"
	"testing"

	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/sweep"
	"simgen/internal/word"
)

// TestDatapathTwinsDetectWords guards the preset's reason to exist: every
// generated twin circuit must stay inside the exhaustive oracle's PI limit
// and must actually trigger word structure detection — otherwise the word
// engine declines every pair and the datapath campaign degenerates into a
// bit-level rerun.
func TestDatapathTwinsDetectWords(t *testing.T) {
	for _, kind := range DatapathKinds() {
		for seed := int64(0); seed < 4; seed++ {
			net := GenerateDatapath(rand.New(rand.NewSource(seed)), kind)
			if err := net.Check(); err != nil {
				t.Fatalf("%s seed %d: invalid network: %v", kind, seed, err)
			}
			if net.NumPIs() > sim.MaxExhaustivePIs {
				t.Fatalf("%s seed %d: %d PIs exceeds the exhaustive oracle limit %d",
					kind, seed, net.NumPIs(), sim.MaxExhaustivePIs)
			}
			cands, bits := word.Detect(net).Counts()
			if cands == 0 || bits < 4 {
				t.Errorf("%s seed %d (%s): detection found %d candidates / %d bits, want a real word",
					kind, seed, net.Name, cands, bits)
			}
		}
	}
}

// TestDatapathDifferentialClean holds the word-level engines to the same
// exhaustive-simulation oracle as the bit-level engines on circuits where
// word detection fires: every engine — including the word engine and the
// word-staged portfolio — must produce exactly the ground-truth partition.
func TestDatapathDifferentialClean(t *testing.T) {
	perKind := 3
	if testing.Short() {
		perKind = 1
	}
	cfg := Config{Seed: 11, WordEngines: true}
	for _, kind := range DatapathKinds() {
		for i := 0; i < perKind; i++ {
			rng := rand.New(rand.NewSource(iterationSeed(11, i)))
			net := GenerateDatapath(rng, kind)
			if f := CheckDifferential(net, cfg); f != nil {
				t.Errorf("%s (%s): %s: %s", kind, net.Name, f.Check, f.Detail)
			}
		}
	}
}

// TestDatapathMetamorphicWordStage drives the word-staged portfolio through
// the metamorphic oracle on datapath twins. The equivalence-preserving
// rewrites include structure-breaking ones (optimize round trips, node
// negation) that destroy word detectability while preserving the function —
// CEC must still say EQ — and the single-gate mutation breaks the word
// function itself — CEC must say NEQ with a verified counterexample. The
// simulation stage is disabled so the word stage faces every obligation.
func TestDatapathMetamorphicWordStage(t *testing.T) {
	perKind := 2
	if testing.Short() {
		perKind = 1
	}
	cfg := Config{Seed: 7, SweepOpts: sweep.Options{
		Engine:    sweep.EnginePortfolio,
		WordStage: true,
		SimPIs:    -1,
	}}
	for _, kind := range DatapathKinds() {
		for i := 0; i < perKind; i++ {
			seed := iterationSeed(7, i)
			net := GenerateDatapath(rand.New(rand.NewSource(seed)), kind)
			if f := CheckMetamorphic(net, seed+1, cfg); f != nil {
				t.Errorf("%s (%s): %s: %s", kind, net.Name, f.Check, f.Detail)
			}
		}
	}
}

// TestDatapathCampaignClean exercises the campaign-level preset exactly as
// `fuzz -datapath` runs it: datapath circuits, both oracles, word engines
// forced into the differential matrix.
func TestDatapathCampaignClean(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 3
	}
	res := RunCampaign(CampaignOptions{
		Seed:     303,
		N:        n,
		Datapath: true,
		Log:      t.Logf,
	})
	for _, f := range res.Failures {
		t.Errorf("datapath campaign failure: %v", f)
	}
}

// TestUnsoundWordEngineCaught injects the word-stage-only fault: the hook
// reports FaultWordAssumeEqual for every pair, which makes the word engine
// claim any in-word obligation equal without proof while every bit-level
// engine ignores the fault entirely and stays the sound reference. The
// differential oracle must catch the unsound merge on a word engine, the
// failure must shrink to a small reproducer, and the reproducer must
// round-trip through the corpus.
func TestUnsoundWordEngineCaught(t *testing.T) {
	// The hook stays armed permanently (unlike the fire-once bit-level
	// fault): bit-level engines consult it first and would consume a
	// one-shot fault without effect, and a stateless hook keeps every
	// shrinker re-check deterministic without needing ResetFault.
	cfg := Config{
		Seed:        3,
		WordEngines: true,
		SweepOpts: sweep.Options{
			FaultHook: func(a, b network.NodeID) sweep.Fault {
				return sweep.FaultWordAssumeEqual
			},
		},
	}
	kinds := DatapathKinds()
	var failure *Failure
	for i := 0; i < 30 && failure == nil; i++ {
		rng := rand.New(rand.NewSource(iterationSeed(555, i)))
		net := GenerateDatapath(rng, kinds[i%len(kinds)])
		failure = CheckDifferential(net, cfg)
		if failure != nil {
			failure.Iteration = i
			failure.Seed = 555
			failure.Shape = "datapath:" + kinds[i%len(kinds)]
		}
	}
	if failure == nil {
		t.Fatal("unsound word engine survived 30 datapath circuits undetected")
	}
	t.Logf("caught at iteration %d: %s: %s", failure.Iteration, failure.Check, failure.Detail)
	if failure.Check != "unsound-merge" {
		t.Fatalf("want an unsound-merge failure, got %s", failure.Check)
	}
	if !strings.Contains(failure.Detail, "word") {
		t.Fatalf("failure does not implicate a word engine: %s", failure.Detail)
	}

	prop := func(candidate *network.Network) bool {
		f := CheckDifferential(candidate, cfg)
		return f != nil && f.Check != "oracle-limit"
	}
	shrunk := Shrink(failure.Net, prop, 0)
	t.Logf("shrunk from %d to %d nodes", failure.Net.NumNodes(), shrunk.NumNodes())
	if shrunk.NumNodes() > 20 {
		t.Fatalf("reproducer still has %d nodes, want <= 20", shrunk.NumNodes())
	}
	failure.Net = shrunk
	dir := t.TempDir()
	path, err := WriteCorpus(dir, failure)
	if err != nil {
		t.Fatalf("writing reproducer: %v", err)
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatalf("reloading corpus: %v", err)
	}
	if len(entries) != 1 || entries[0].Path != path {
		t.Fatalf("corpus round trip lost the reproducer: %+v", entries)
	}
	if !prop(entries[0].Net) {
		t.Fatal("reloaded reproducer no longer triggers the unsound word engine")
	}
}
