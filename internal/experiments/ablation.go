package experiments

import (
	"fmt"
	"strings"
	"time"

	"simgen/internal/core"
	"simgen/internal/load"
	"simgen/internal/network"
)

// AblationRow is the outcome of one vector source on one benchmark.
type AblationRow struct {
	Source   string
	Cost     int
	SimTime  time.Duration
	SATCalls int // SAT calls spent *generating vectors* (SAT-vector source)
	// Attempts/Conflicts: target-justification tries and failures for the
	// guided sources — the success-rate improvement is the paper's central
	// mechanism.
	Attempts  int
	Conflicts int
}

// SuccessRate returns the fraction of justification attempts that survived
// without a conflict (1.0 when the source does not track attempts).
func (r AblationRow) SuccessRate() float64 {
	if r.Attempts == 0 {
		return 1
	}
	return 1 - float64(r.Conflicts)/float64(r.Attempts)
}

// AblationResult groups the per-source averages of the extension study.
type AblationResult struct {
	Sources []string
	// NormCost[s] is the average cost normalized to RevS.
	NormCost []float64
	// SuccessRate[s] is the overall justification success rate (guided
	// sources only; 1.0 for the class-oblivious ones).
	SuccessRate []float64
	PerBench    map[string][]AblationRow
}

// Ablation runs the extended method comparison: beyond the paper's RevS/
// SimGen pair it evaluates random simulation, 1-distance vectors
// (Mishchenko et al.) and SAT-generated vectors (Lee et al. style), the
// related-work baselines whose claims the paper measures itself against.
func Ablation(cfg Config) (AblationResult, error) {
	type source struct {
		name string
		mk   func(net *network.Network, seed int64) core.VectorSource
	}
	sources := []source{
		{MethodRevS.Name, MethodRevS.source},
		{MethodRandS.Name, MethodRandS.source},
		{"1-distance", func(n *network.Network, s int64) core.VectorSource { return core.NewOneDistance(n, s, 8) }},
		{"SAT-vectors", func(n *network.Network, s int64) core.VectorSource { return core.NewSATVector(n, s) }},
		{MethodSimGen.Name, MethodSimGen.source},
	}

	res := AblationResult{PerBench: map[string][]AblationRow{}}
	for _, s := range sources {
		res.Sources = append(res.Sources, s.name)
	}
	sums := make([]float64, len(sources))
	counted := 0
	for _, name := range cfg.names() {
		net, err := load.Benchmark(name)
		if err != nil {
			return res, err
		}
		rows := make([]AblationRow, len(sources))
		for i, s := range sources {
			n := net.Clone()
			runner := core.NewRunner(n, cfg.RandomRounds, cfg.Seed)
			if cfg.BatchSize > 0 {
				runner.BatchSize = cfg.BatchSize
			}
			src := s.mk(n, cfg.Seed+1)
			runFixed(runner, src, cfg.GuidedIterations)
			rows[i] = AblationRow{
				Source:  s.name,
				Cost:    runner.Classes.Cost(),
				SimTime: runner.Elapsed(),
			}
			switch s := src.(type) {
			case *core.SATVector:
				rows[i].SATCalls = s.SATCalls
			case *core.Generator:
				rows[i].Attempts, rows[i].Conflicts = s.Attempts, s.Conflicts
			case *core.Reverse:
				rows[i].Attempts, rows[i].Conflicts = s.Attempts, s.Conflicts
			}
		}
		res.PerBench[name] = rows
		base := rows[0]
		if base.Cost == 0 {
			continue
		}
		counted++
		for i := range sources {
			sums[i] += float64(rows[i].Cost) / float64(base.Cost)
		}
	}
	res.NormCost = make([]float64, len(sources))
	for i := range sources {
		if counted > 0 {
			res.NormCost[i] = sums[i] / float64(counted)
		}
	}
	res.SuccessRate = make([]float64, len(sources))
	for i := range sources {
		att, conf := 0, 0
		for _, rows := range res.PerBench {
			att += rows[i].Attempts
			conf += rows[i].Conflicts
		}
		if att > 0 {
			res.SuccessRate[i] = 1 - float64(conf)/float64(att)
		} else {
			res.SuccessRate[i] = 1
		}
	}
	return res, nil
}

// Format renders the ablation result.
func (r AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %14s\n", "source", "norm cost", "success rate")
	for i, s := range r.Sources {
		fmt.Fprintf(&b, "%-14s %10.3f %13.1f%%\n", s, r.NormCost[i], 100*r.SuccessRate[i])
	}
	return b.String()
}
