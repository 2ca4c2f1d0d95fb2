package fuzz

import (
	"math/rand"

	"simgen/internal/network"
)

// CampaignOptions configures a fuzzing campaign.
type CampaignOptions struct {
	// Seed determines the whole campaign; iteration i derives its own rng
	// from (Seed, i), so any single iteration replays in isolation.
	Seed int64
	// N is the number of iterations (circuits).
	N int
	// Shape, when non-nil, fixes the generator shape; otherwise iterations
	// cycle through the Shapes() presets.
	Shape *Shape
	// Datapath switches the generator to the word-structured twin circuits
	// (GenerateDatapath, cycling DatapathKinds), so the bit-level engines
	// face the differential oracle on arithmetic whose two implementations
	// share no structure. Shape is ignored.
	Datapath bool
	// Differential / Metamorphic select the oracles to run; when neither is
	// set, RunCampaign enables both.
	Differential, Metamorphic bool
	// Shrink minimizes failing circuits before reporting them.
	Shrink bool
	// CorpusDir, when set, stores shrunk reproducers as BLIF goldens.
	CorpusDir string
	// MaxFailures stops the campaign after this many failures (default 1).
	MaxFailures int
	// Config is passed to the oracles.
	Config Config
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Iterations int
	Circuits   int // circuits actually checked (== Iterations unless stopped)
	Failures   []*Failure
}

// iterationSeed mixes the campaign seed and iteration index into the rng
// seed for one circuit (SplitMix64 finalizer, so neighboring iterations are
// uncorrelated).
func iterationSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunCampaign generates N circuits and runs the selected oracles on each.
// Failures are shrunk (when requested), annotated with their reproduction
// context, and optionally written to the corpus directory.
func RunCampaign(opts CampaignOptions) CampaignResult {
	if opts.MaxFailures <= 0 {
		opts.MaxFailures = 1
	}
	if !opts.Differential && !opts.Metamorphic {
		opts.Differential, opts.Metamorphic = true, true
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	presets := ShapeNames()
	shapes := Shapes()
	kinds := DatapathKinds()

	var res CampaignResult
	for i := 0; i < opts.N; i++ {
		res.Iterations = i + 1
		iterSeed := iterationSeed(opts.Seed, i)
		rng := rand.New(rand.NewSource(iterSeed))
		var net *network.Network
		var shapeName string
		if opts.Datapath {
			kind := kinds[i%len(kinds)]
			net = GenerateDatapath(rng, kind)
			shapeName = "datapath:" + kind
		} else {
			shape := shapes[presets[i%len(presets)]]
			if opts.Shape != nil {
				shape = *opts.Shape
			}
			net = Generate(rng, shape)
			shapeName = shape.String()
		}
		res.Circuits++

		var failure *Failure
		metaSeed := iterSeed + 1
		if opts.Differential {
			failure = CheckDifferential(net, opts.Config)
		}
		if failure == nil && opts.Metamorphic {
			failure = CheckMetamorphic(net, metaSeed, opts.Config)
		}
		if failure == nil {
			if (i+1)%50 == 0 {
				logf("fuzz: %d/%d circuits clean", i+1, opts.N)
			}
			continue
		}

		failure.Iteration = i
		failure.Seed = opts.Seed
		failure.Shape = shapeName
		logf("fuzz: FAILURE %s at iteration %d: %s", failure.Check, i, failure.Detail)
		if opts.Shrink {
			failure.Net = Shrink(failure.Net, reproduces(opts, metaSeed), 0)
			logf("fuzz: shrunk reproducer to %d nodes (%d POs)", failure.Net.NumNodes(), failure.Net.NumPOs())
		}
		if opts.CorpusDir != "" {
			path, err := WriteCorpus(opts.CorpusDir, failure)
			if err != nil {
				logf("fuzz: writing corpus file failed: %v", err)
			} else {
				failure.CorpusPath = path
				logf("fuzz: reproducer written to %s", path)
			}
		}
		res.Failures = append(res.Failures, failure)
		if len(res.Failures) >= opts.MaxFailures {
			break
		}
	}
	return res
}

// reproduces builds the shrinking property: the candidate must still fail
// one of the campaign's oracles (deterministically, via the iteration's
// metamorphic seed).
func reproduces(opts CampaignOptions, metaSeed int64) Property {
	return func(candidate *network.Network) bool {
		if opts.Differential {
			if f := CheckDifferential(candidate, opts.Config); f != nil && f.Check != "oracle-limit" {
				return true
			}
		}
		if opts.Metamorphic {
			if f := CheckMetamorphic(candidate, metaSeed, opts.Config); f != nil && f.Check != "oracle-limit" {
				return true
			}
		}
		return false
	}
}
