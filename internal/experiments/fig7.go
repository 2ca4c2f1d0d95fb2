package experiments

import (
	"fmt"
	"strings"
	"time"

	"simgen/internal/core"
	"simgen/internal/load"
)

// TrajectoryPoint is one iteration of a Figure 7 run.
type TrajectoryPoint struct {
	Iteration int
	Cost      int
	Elapsed   time.Duration
}

// Trajectory is the cost/runtime curve of one simulation scheme.
type Trajectory struct {
	Scheme    string // "RandS", "RandS+RevS", "RandS+SimGen"
	SwitchAt  int    // iteration where the guided method took over (-1: never)
	Points    []TrajectoryPoint
	FinalCost int
}

// Figure7Schemes are the three schemes compared in the paper's Figure 7.
var Figure7Schemes = []string{"RandS", "RandS+RevS", "RandS+SimGen"}

// Figure7 reproduces the paper's Figure 7 on one benchmark: random
// simulation alone versus random simulation handing over to RevS or SimGen
// once the cost stagnates for `patience` consecutive iterations (paper: 3).
func Figure7(bench string, iterations, patience int, cfg Config) ([]Trajectory, error) {
	if patience <= 0 {
		patience = 3
	}
	var out []Trajectory
	for _, scheme := range Figure7Schemes {
		net, err := load.Benchmark(bench)
		if err != nil {
			return nil, err
		}
		runner := core.NewRunner(net, cfg.RandomRounds, cfg.Seed)
		if cfg.BatchSize > 0 {
			runner.BatchSize = cfg.BatchSize
		}
		randSrc := core.NewRandom(net, cfg.Seed+1)
		var guided core.VectorSource
		switch scheme {
		case "RandS+RevS":
			guided = core.NewReverse(net, cfg.Seed+2)
		case "RandS+SimGen":
			guided = core.NewGenerator(net, core.StrategySimGen, cfg.Seed+2)
		}

		tr := Trajectory{Scheme: scheme, SwitchAt: -1}
		stagnant := 0
		lastCost := runner.Classes.Cost()
		switched := false
		for i := 0; i < iterations; i++ {
			src := core.VectorSource(randSrc)
			if switched {
				src = guided
			}
			st := runner.Step(src, i)
			tr.Points = append(tr.Points, TrajectoryPoint{
				Iteration: i, Cost: st.Cost, Elapsed: st.Elapsed,
			})
			if st.Cost == lastCost {
				stagnant++
			} else {
				stagnant = 0
			}
			lastCost = st.Cost
			if !switched && guided != nil && stagnant >= patience {
				switched = true
				tr.SwitchAt = i + 1
			}
		}
		tr.FinalCost = lastCost
		out = append(out, tr)
	}
	return out, nil
}

// FormatFigure7 renders the trajectories side by side.
func FormatFigure7(bench string, trs []Trajectory) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark %s\n", bench)
	fmt.Fprintf(&b, "%-5s", "iter")
	for _, tr := range trs {
		fmt.Fprintf(&b, "%16s %10s", tr.Scheme+" cost", "time")
	}
	b.WriteByte('\n')
	n := 0
	for _, tr := range trs {
		if len(tr.Points) > n {
			n = len(tr.Points)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-5d", i)
		for _, tr := range trs {
			if i < len(tr.Points) {
				p := tr.Points[i]
				fmt.Fprintf(&b, "%16d %10s", p.Cost, p.Elapsed.Round(10*time.Microsecond))
			} else {
				fmt.Fprintf(&b, "%16s %10s", "-", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, tr := range trs {
		fmt.Fprintf(&b, "%s: final cost %d (switch at %d)\n", tr.Scheme, tr.FinalCost, tr.SwitchAt)
	}
	return b.String()
}
