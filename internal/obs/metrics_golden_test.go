// Metrics- and report-golden regression tests: the deterministic
// single-worker pipeline of the golden traces runs under a MetricsTracer
// and a Collector, and every count either view exposes must match a golden
// file. Wall-clock values (histogram sums and buckets, report times and
// utilization) are left out, so the goldens pin what the run counted, not
// how long it took.
//
// Regenerate with: go test ./internal/obs/ -run TestMetricsSnapshotGolden -update
package obs_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"simgen/internal/core"
	"simgen/internal/obs"
	"simgen/internal/sweep"
)

// countsGolden runs the golden pipeline on the named benchmark and renders
// the metrics snapshot (one "name value" line per entry, sorted) and the
// report JSON, both with wall-clock fields removed.
func countsGolden(t *testing.T, bench string) (snapshot, report []byte) {
	t.Helper()
	net := benchNetwork(t, bench)
	m := obs.NewMetrics()
	col := obs.NewCollector()
	tr := obs.Multi(obs.NewMetricsTracer(m), col)
	runner := core.NewRunner(net, 1, goldenSeed)
	runner.SetTracer(tr)
	runner.Run(core.NewGenerator(net, core.StrategySimGen, goldenSeed+1), goldenIters)
	sweep.New(net, runner.Classes, sweep.Options{
		Engine: sweep.EnginePortfolio,
		Tracer: tr,
	}).Run()

	snap := m.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		if strings.HasSuffix(name, ".sum_ns") || strings.Contains(name, ".le_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var sb bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&sb, "%s %d\n", name, snap[name])
	}

	rep := col.Report()
	rep.Wall, rep.ProveTime, rep.Utilization, rep.Gen.Time = 0, 0, 0, 0
	for i := range rep.Engines {
		rep.Engines[i].Time = 0
	}
	var rb bytes.Buffer
	if err := rep.WriteJSON(&rb); err != nil {
		t.Fatal(err)
	}
	return sb.Bytes(), rb.Bytes()
}

func checkCountsGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden (regenerate with -update if the change is intended)\n%s",
			path, firstDiff(got, want))
	}
}

// TestMetricsSnapshotGolden pins the /metrics counters and the report's
// counts on three circuits; pdc reaches the SAT engine, pool flushes and a
// non-zero queue depth.
func TestMetricsSnapshotGolden(t *testing.T) {
	for _, bench := range []string{"alu4", "log2", "pdc"} {
		t.Run(bench, func(t *testing.T) {
			snap, rep := countsGolden(t, bench)
			checkCountsGolden(t, filepath.Join("testdata", "metrics", bench+".txt"), snap)
			checkCountsGolden(t, filepath.Join("testdata", "reports", bench+".json"), rep)
		})
	}
}
