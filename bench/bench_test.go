package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"simgen/internal/genbench"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T, root string) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// smoke measures one pass of a workload cut to two ops.
func smoke(t *testing.T, w workload, traced bool, plant faults) *result {
	t.Helper()
	res, err := measure(w, config{seed: 1, root: testRoot(t), maxOps: 2, plant: plant}, 0, traced)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// TestSmoke runs every workload at two ops, untraced and traced, and
// checks that each run reports exactly the metrics BENCHMARK.json names,
// with their units, and that the traced run's spans nest and add up.
func TestSmoke(t *testing.T) {
	s := loadSpec(t, testRoot(t))
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := smoke(t, w, traced, faults{})
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			out := res.out
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d", w.name, traced, out.Correct, out.Failed, out.Attempted)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
			if traced {
				checkSpans(t, w.name, res)
			}
		}
	}
}

// checkSpans asserts that the spans nest and that the layers' self times
// add up to the op time, as the per-layer shares do to 100.
func checkSpans(t *testing.T, name string, res *result) {
	t.Helper()
	if err := res.tr.checkNesting(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	self, total := res.tr.selfTimes()
	var selfSum float64
	for _, layer := range ledgerLayers {
		selfSum += self[layer].Seconds()
		delete(self, layer)
	}
	if len(self) != 0 {
		t.Errorf("%s: spans of layers outside the ledger: %v", name, self)
	}
	if total <= 0 || math.Abs(selfSum-total.Seconds()) > 0.01*total.Seconds() {
		t.Errorf("%s: self times add up to %.6fs, op time is %.6fs", name, selfSum, total.Seconds())
	}
	var op float64
	for _, p := range res.passes {
		if p.tr != nil {
			op += sum(p.opTimes).Seconds()
		}
	}
	if math.Abs(op-total.Seconds()) > 0.01*op {
		t.Errorf("%s: root spans cover %.6fs, measured op time %.6fs", name, total.Seconds(), op)
	}
	var pct float64
	for _, layer := range ledgerLayers {
		pct += res.out.Metrics[layer+".pct"].Value
	}
	if math.Abs(pct-100) > 1 {
		t.Errorf("%s: ledger shares add up to %.3f%%", name, pct)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := res.tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != len(res.tr.spans) {
		t.Errorf("%s: wrote %d span lines, recorded %d spans", name, lines, len(res.tr.spans))
	}
}

// TestChecksCatchPlantedFaults shows the output checks are live: a wrong
// merge planted in the Rep map fails suite and eco ops, and a flipped
// verdict fails datapath ops.
func TestChecksCatchPlantedFaults(t *testing.T) {
	for _, c := range []struct {
		workload string
		plant    faults
	}{
		{"suite", faults{wrongMerge: true}},
		{"eco", faults{wrongMerge: true}},
		{"datapath", faults{flipVerdict: true}},
	} {
		w, _ := findWorkload(c.workload)
		res := smoke(t, w, false, c.plant)
		if res.out.Failed == 0 || res.out.Correct {
			t.Errorf("%s with %+v: %d of %d ops failed, want > 0", c.workload, c.plant, res.out.Failed, res.out.Attempted)
		}
	}
}

// TestCLIParity checks that the benchmark's re-composed pipelines do what
// the cmd/sweep binary does: the same partition cost after guided
// simulation, SAT calls, proofs, disproofs and final cost.
func TestCLIParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/sweep")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, "simgen/cmd/sweep").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/sweep: %v\n%s", err, out)
	}
	const seed = 1
	// alu4 and apex2 end the same under most pipeline changes; priority and
	// m_ctrl show a wrong random-round count in their costs and calls.
	for _, name := range []string{"alu4", "apex2", "priority", "m_ctrl"} {
		b, _ := genbench.ByName(name)
		out, err := suiteOp(context.Background(), nil, -1, b.Build(), seed)
		if err != nil {
			t.Fatal(err)
		}
		cli := runCLI(t, bin, "-benchmark", name, "-seed", strconv.Itoa(seed), "-conflict-budget", strconv.Itoa(suiteBudget))
		got := sweepLine{out.gen.costAfter, out.res.SATCalls, out.res.Proved, out.res.Disproved, out.res.FinalCost}
		if got != cli {
			t.Errorf("suite %s: benchmark %+v, cmd/sweep %+v", name, got, cli)
		}
	}

	e, err := newEco(config{seed: seed}, []string{"pdc"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	op := e.ops[0]
	base, edit := filepath.Join(dir, "base.blif"), filepath.Join(dir, "edit.blif")
	for path, text := range map[string][]byte{base: op.c.base, edit: op.edit} {
		if err := os.WriteFile(path, text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cliCache, benchCache := filepath.Join(dir, "cli-cache"), filepath.Join(dir, "bench-cache")
	for _, d := range []string{cliCache, benchCache} {
		if err := copyDir(op.c.cache, d); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ecoOp(context.Background(), nil, -1, op.c.base, op.edit, benchCache, seed)
	if err != nil {
		t.Fatal(err)
	}
	cli := runCLI(t, bin, "-method", "none", "-seed", strconv.Itoa(seed), "-cache-dir", cliCache, "-base", base, edit)
	got := sweepLine{out.cost, out.res.SATCalls, out.res.Proved, out.res.Disproved, out.res.FinalCost}
	if got != cli {
		t.Errorf("eco pdc: benchmark %+v, cmd/sweep %+v", got, cli)
	}
}

// sweepLine is what cmd/sweep prints about a sweep.
type sweepLine struct{ guided, calls, proved, disproved, cost int }

var (
	guidedRe = regexp.MustCompile(`after guided simulation \(\w+\): cost (\d+)`)
	callsRe  = regexp.MustCompile(`sweeping: calls=(\d+) `)
	provedRe = regexp.MustCompile(`proved (\d+) equivalences, disproved (\d+) pairs, final cost (\d+)`)
)

func runCLI(t *testing.T, bin string, args ...string) sweepLine {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, out)
	}
	g, c, p := guidedRe.FindSubmatch(out), callsRe.FindSubmatch(out), provedRe.FindSubmatch(out)
	if g == nil || c == nil || p == nil {
		t.Fatalf("sweep %v: no sweep summary in\n%s", args, out)
	}
	n := func(b []byte) int {
		v, _ := strconv.Atoi(string(b))
		return v
	}
	return sweepLine{n(g[1]), n(c[1]), n(p[1]), n(p[2]), n(p[3])}
}
