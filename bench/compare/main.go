// Command compare reports whether a change moved the benchmark. Given the
// run results of a parent commit and of a change, it prints for each
// workload and metric both sides' median and quartiles, how many pairs
// the change won, and one verdict, by the rule of the choosing-metrics
// guide (section 8):
//
//   - improved: at least 10 pairs, the change wins at least 9 of every 10
//     (ties count for neither), and the medians differ by more than the
//     parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound (per-layer metrics, which have none: the
//     improved rule with the sides swapped);
//   - unresolved: the parent's own spread is wider than the bound, and not
//     every change run reads better than every parent run;
//   - within bound: otherwise ("unchanged" for a per-layer metric).
//
// It also compares the share of failed ops; a change with more failures
// regresses. Each directory holds one file per run, named
// <workload>.<anything>.json, holding the JSON line the run printed last;
// runs pair up in file-name order. The exit status is 1 when anything
// regressed.
//
//	go run ./compare -spec ../BENCHMARK.json parent-dir change-dir
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metrics' bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-spec BENCHMARK.json] parent-dir change-dir")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	change, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	regressed := false
	for _, w := range spec.Workloads {
		rows := compareWorkload(spec, parent[w.Name], change[w.Name])
		if rows == nil {
			continue
		}
		fmt.Fprintf(stdout, "## %s (%d parent runs, %d change runs)\n\n", w.Name, len(parent[w.Name]), len(change[w.Name]))
		fmt.Fprintln(stdout, "| metric | unit | parent median [q1, q3] | change median [q1, q3] | change wins | verdict |")
		fmt.Fprintln(stdout, "|---|---|---|---|---|---|")
		for _, r := range rows {
			fmt.Fprintf(stdout, "| %s | %s | %s | %s | %s | %s |\n", r.name, r.unit, r.parent, r.change, r.wins, r.verdict)
			regressed = regressed || r.verdict == "regressed"
		}
		fmt.Fprintln(stdout)
	}
	if regressed {
		return 1
	}
	return 0
}

// load reads every <workload>.*.json run file of dir, in name order.
func load(dir string) (map[string][]run, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]run{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r run
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		w, _, _ := strings.Cut(filepath.Base(p), ".")
		out[w] = append(out[w], r)
	}
	return out, nil
}

type row struct {
	name, unit, parent, change, wins, verdict string
}

func compareWorkload(spec benchSpec, parent, change []run) []row {
	if len(parent) == 0 || len(change) == 0 {
		return nil
	}
	var rows []row
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		p, c := values(parent, m.Name), values(change, m.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		rows = append(rows, judge(m, p, c))
	}
	failed := func(rs []run) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = float64(r.Failed) / float64(max(r.Attempted, 1))
		}
		return out
	}
	zero := 0.0
	rows = append(rows, judge(metricSpec{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: &zero}, failed(parent), failed(change)))
	return rows
}

func values(rs []run, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge applies the verdict rule to one metric's parent and change runs.
func judge(m metricSpec, p, c []float64) row {
	sign := 1.0 // > 0 means the change is better
	if m.Better == "lower" {
		sign = -1
	}
	pm, cm := median(p), median(c)
	pq1, pq3 := quartiles(p)
	cq1, cq3 := quartiles(c)
	n := min(len(p), len(c))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := sign * (c[i] - p[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	gap := sign * (cm - pm)
	iqr := pq3 - pq1
	strict := func(won int, better bool) bool {
		return n >= 10 && 10*won >= 9*n && better && math.Abs(cm-pm) > iqr
	}
	verdict := "within bound"
	switch {
	case strict(wins, gap > 0):
		verdict = "improved"
	case m.Bound == nil && strict(losses, gap < 0):
		verdict = "regressed"
	case m.Bound == nil:
		verdict = "unchanged"
	case -gap > *m.Bound*math.Abs(pm):
		verdict = "regressed"
	case iqr > *m.Bound*math.Abs(pm) && !allBetter(sign, p, c):
		verdict = "unresolved"
	}
	return row{
		name:    m.Name,
		unit:    m.Unit,
		parent:  fmt.Sprintf("%.4g [%.4g, %.4g]", pm, pq1, pq3),
		change:  fmt.Sprintf("%.4g [%.4g, %.4g]", cm, cq1, cq3),
		wins:    fmt.Sprintf("%d/%d", wins, n),
		verdict: verdict,
	}
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(sign float64, p, c []float64) bool {
	for _, x := range p {
		for _, y := range c {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
