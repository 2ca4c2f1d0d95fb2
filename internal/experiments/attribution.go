package experiments

import (
	"fmt"
	"strings"
	"time"

	"simgen/internal/core"
	"simgen/internal/load"
	"simgen/internal/obs"
	"simgen/internal/sweep"
)

// AttributionRow is one benchmark's engine-attribution report: the full
// SimGen pipeline (random rounds, guided iterations, portfolio sweep) run
// under a collecting tracer, so the sweep's wall time and verdicts are
// broken down per proof engine.
type AttributionRow struct {
	Bench  string
	Report obs.Report
	Result sweep.Result
}

// Attribution runs the portfolio sweep pipeline over the configured
// benchmarks with an event collector attached and returns one engine
// breakdown per benchmark.
func Attribution(cfg Config) ([]AttributionRow, error) {
	var rows []AttributionRow
	for _, name := range cfg.names() {
		net, err := load.Benchmark(name)
		if err != nil {
			return nil, err
		}
		col := obs.NewCollector()
		runner := core.NewRunner(net, cfg.RandomRounds, cfg.Seed)
		if cfg.BatchSize > 0 {
			runner.BatchSize = cfg.BatchSize
		}
		runner.SetTracer(col)
		runFixed(runner, core.NewGenerator(net, core.StrategySimGen, cfg.Seed+1), cfg.GuidedIterations)
		sw := sweep.New(net, runner.Classes, sweep.Options{
			Engine:         sweep.EnginePortfolio,
			ConflictBudget: cfg.ConflictBudget,
			Tracer:         col,
		})
		res := sw.Run()
		rows = append(rows, AttributionRow{Bench: name, Report: col.Report(), Result: res})
	}
	return rows, nil
}

// FormatAttribution renders the engine-attribution table: per benchmark,
// one line per engine with its prove counts and time share.
func FormatAttribution(rows []AttributionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %7s %7s %7s %7s %12s %7s\n",
		"bench", "engine", "proves", "equal", "differ", "unknown", "time", "share")
	for _, row := range rows {
		total := row.Report.ProveTime
		for _, e := range row.Report.Engines {
			share := 0.0
			if total > 0 {
				share = float64(e.Time) / float64(total)
			}
			fmt.Fprintf(&b, "%-10s %-10s %7d %7d %7d %7d %12v %6.1f%%\n",
				row.Bench, e.Name, e.Proves, e.Equal, e.Differ, e.Unknown,
				e.Time.Round(10*time.Microsecond), 100*share)
		}
		o := row.Report.Obligations
		fmt.Fprintf(&b, "%-10s %-10s %7d scheduled, %d proved, %d disproved, %d unresolved, cost %d\n",
			row.Bench, "total", o.Scheduled, row.Result.Proved,
			row.Result.Disproved, row.Result.Unresolved, row.Result.FinalCost)
	}
	return b.String()
}
