package fuzz

import (
	"math/rand"
	"testing"

	"simgen/internal/sim"
	"simgen/internal/sweep"
)

// TestDatapathTwinsDetectWords guards the preset's reason to exist: every
// generated twin circuit must stay inside the exhaustive oracle's PI limit
// and must carry two output words of at least three bits whose bits pair
// up across structurally different implementations — otherwise the
// datapath campaign holds the engines to nothing a random circuit does
// not.
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
			tables := NodeTables(net)
			pos := net.POs()
			half := len(pos) / 2
			if len(pos) != 2*half || half < 3 {
				t.Fatalf("%s seed %d (%s): %d outputs, want two words of at least 3 bits",
					kind, seed, net.Name, len(pos))
			}
			for i, po := range pos[:half] {
				twin := pos[half+i]
				if po.Driver == twin.Driver || !tables[po.Driver].Equal(tables[twin.Driver]) {
					t.Errorf("%s seed %d (%s): outputs %s and %s are not twin bits",
						kind, seed, net.Name, po.Name, twin.Name)
				}
			}
		}
	}
}

// TestDatapathDifferentialClean holds every bit-level engine to the
// exhaustive-simulation oracle on datapath twins: each must produce exactly
// the ground-truth partition.
func TestDatapathDifferentialClean(t *testing.T) {
	perKind := 3
	if testing.Short() {
		perKind = 1
	}
	cfg := Config{Seed: 11}
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

// TestDatapathMetamorphicWordStage drives the bit-level portfolio through
// the metamorphic oracle on datapath twins. The equivalence-preserving
// rewrites include structure-breaking ones (optimize round trips, node
// negation) that preserve the function — CEC must still say EQ — and the
// single-gate mutation breaks the word function itself — CEC must say NEQ
// with a verified counterexample.
func TestDatapathMetamorphicWordStage(t *testing.T) {
	perKind := 2
	if testing.Short() {
		perKind = 1
	}
	cfg := Config{Seed: 7, SweepOpts: sweep.Options{Engine: sweep.EnginePortfolio}}
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
// `fuzz -datapath` runs it: datapath circuits, both oracles.
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
