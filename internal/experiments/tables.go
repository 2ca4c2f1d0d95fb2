package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"simgen/internal/load"
	"simgen/internal/network"
)

// Table1Result holds the normalized averages of Table 1 plus the
// per-benchmark detail behind them.
type Table1Result struct {
	Methods []string
	// Cost[m] and SimRuntime[m] are averages over benchmarks of the
	// per-benchmark values normalized to RevS (index 0 is RevS = 1.0).
	Cost       []float64
	SimRuntime []float64
	// PerBench[bench][method] raw results.
	PerBench map[string][]PipelineResult
}

// Table1 reproduces Table 1: average normalized cost and simulation runtime
// of RevS, SI+RD, AI+RD, AI+DC and AI+DC+MFFC after one random round and
// GuidedIterations guided iterations.
func Table1(cfg Config) (Table1Result, error) {
	res := Table1Result{PerBench: map[string][]PipelineResult{}}
	for _, m := range Table1Methods {
		res.Methods = append(res.Methods, m.Name)
	}
	sumCost := make([]float64, len(Table1Methods))
	sumTime := make([]float64, len(Table1Methods))
	counted := 0
	for _, name := range cfg.names() {
		net, err := load.Benchmark(name)
		if err != nil {
			return res, err
		}
		row := make([]PipelineResult, len(Table1Methods))
		for i, m := range Table1Methods {
			// Run every method on its own clone so each pays the same
			// one-time cover-cache construction cost.
			row[i] = RunPipeline(net.Clone(), m, cfg, false)
			row[i].Bench = name
		}
		res.PerBench[name] = row
		base := row[0] // RevS
		if base.Cost == 0 || base.SimTime == 0 {
			continue // degenerate benchmark: nothing to normalize against
		}
		counted++
		for i := range Table1Methods {
			sumCost[i] += float64(row[i].Cost) / float64(base.Cost)
			sumTime[i] += float64(row[i].SimTime) / float64(base.SimTime)
		}
	}
	res.Cost = make([]float64, len(Table1Methods))
	res.SimRuntime = make([]float64, len(Table1Methods))
	for i := range Table1Methods {
		if counted > 0 {
			res.Cost[i] = sumCost[i] / float64(counted)
			res.SimRuntime[i] = sumTime[i] / float64(counted)
		}
	}
	return res, nil
}

// Format renders the result in the layout of the paper's Table 1.
func (r Table1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "")
	for _, m := range r.Methods {
		fmt.Fprintf(&b, "%12s", m)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-20s", "Cost")
	for _, v := range r.Cost {
		fmt.Fprintf(&b, "%12.3f", v)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-20s", "Simulation Runtime")
	for _, v := range r.SimRuntime {
		fmt.Fprintf(&b, "%12.3f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// Table2Row is one benchmark's SAT-sweeping comparison.
type Table2Row struct {
	Bench     string
	Copies    int // >1 for the scaled set
	CallsRevS int
	CallsSGen int
	TimeRevS  time.Duration
	TimeSGen  time.Duration
	CostRevS  int
	CostSGen  int
	SimRevS   time.Duration
	SimSGen   time.Duration
}

// Table2 reproduces the upper half of Table 2: SAT calls and SAT time of
// the sweeping tool after RevS-guided versus SimGen-guided simulation.
func Table2(cfg Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range cfg.names() {
		net, err := load.Benchmark(name)
		if err != nil {
			return nil, err
		}
		row, err := compareOn(net, name, 1, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Scaled reproduces the lower half of Table 2 on the putontop-scaled
// benchmark set.
func Table2Scaled(cfg Config, set []ScaledBenchmark) ([]Table2Row, error) {
	if set == nil {
		set = ScaledSet
	}
	var rows []Table2Row
	for _, sb := range set {
		net, err := scaledNetwork(sb)
		if err != nil {
			return nil, err
		}
		row, err := compareOn(net, sb.Name, sb.Copies, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func compareOn(net *network.Network, name string, copies int, cfg Config) (Table2Row, error) {
	rev := RunPipeline(net.Clone(), MethodRevS, cfg, true)
	sgen := RunPipeline(net.Clone(), MethodSimGen, cfg, true)
	return Table2Row{
		Bench:     name,
		Copies:    copies,
		CallsRevS: rev.SATCalls,
		CallsSGen: sgen.SATCalls,
		TimeRevS:  rev.SATTime,
		TimeSGen:  sgen.SATTime,
		CostRevS:  rev.Cost,
		CostSGen:  sgen.Cost,
		SimRevS:   rev.SimTime,
		SimSGen:   sgen.SimTime,
	}, nil
}

// FormatTable2 renders rows in the layout of the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %12s %12s\n", "Bmk", "RevS calls", "SGen calls", "RevS time", "SGen time")
	for _, r := range rows {
		name := r.Bench
		if r.Copies > 1 {
			name = fmt.Sprintf("%s (%d)", r.Bench, r.Copies)
		}
		fmt.Fprintf(&b, "%-14s %10d %10d %12s %12s\n",
			name, r.CallsRevS, r.CallsSGen,
			r.TimeRevS.Round(10*time.Microsecond), r.TimeSGen.Round(10*time.Microsecond))
	}
	return b.String()
}

// FigureRow is one benchmark's normalized differences (Figures 5 and 6):
// (SimGen - RevS) / RevS for each metric; negative is better for SimGen.
type FigureRow struct {
	Bench    string
	Copies   int
	DCost    float64
	DSimTime float64
	DCalls   float64
	DSATTime float64
}

// FigureRows derives Figure 5/6 data from Table 2 rows.
func FigureRows(rows []Table2Row) []FigureRow {
	out := make([]FigureRow, 0, len(rows))
	for _, r := range rows {
		fr := FigureRow{Bench: r.Bench, Copies: r.Copies}
		fr.DCost = normDiff(float64(r.CostSGen), float64(r.CostRevS))
		fr.DSimTime = normDiff(float64(r.SimSGen), float64(r.SimRevS))
		fr.DCalls = normDiff(float64(r.CallsSGen), float64(r.CallsRevS))
		fr.DSATTime = normDiff(float64(r.TimeSGen), float64(r.TimeRevS))
		out = append(out, fr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bench < out[j].Bench })
	return out
}

func normDiff(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base
}

// FormatFigure renders the figure data as an aligned table with one bar
// group per benchmark (the textual equivalent of the paper's bar charts).
func FormatFigure(rows []FigureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %10s\n", "Bmk", "Δcost", "Δsimtime", "Δcalls", "Δsattime")
	for _, r := range rows {
		name := r.Bench
		if r.Copies > 1 {
			name = fmt.Sprintf("%s (%d)", r.Bench, r.Copies)
		}
		fmt.Fprintf(&b, "%-14s %+9.1f%% %+9.1f%% %+9.1f%% %+9.1f%%\n",
			name, 100*r.DCost, 100*r.DSimTime, 100*r.DCalls, 100*r.DSATTime)
	}
	return b.String()
}
