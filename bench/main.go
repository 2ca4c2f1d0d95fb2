// Command bench is the simgen pipeline benchmark. For one workload it
// builds the inputs from a seed, runs them through the public functions of
// each module (mapper, blif, core, sim, sweep, prover and sat through
// sweep.Result, pcache, sweepd) for a fixed time, checks every output
// against an answer the code under test did not produce, and prints one
// JSON line with every metric by name and unit.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced passes and reports the per-layer ledger, computed from spans
// recorded around each call into a module. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"simgen/internal/sweep"
)

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 3

// warmups is how many of its (cheapest) first ops a workload's set-up runs
// untimed, so measured passes start warm and set-up time is not a few
// milliseconds that process start-up noise swamps. The service, whose ops
// are a few milliseconds each, warms up on warmups*10 jobs.
const warmups = 4

// opLimit bounds one op; an op that runs longer counts as failed.
const opLimit = 30 * time.Second

// config is what a workload's setup and passes need to know.
type config struct {
	seed   int64
	root   string // repository root, for testdata
	traced bool   // the run records spans
	// maxOps truncates the workload's op list (0 keeps every op); tests
	// use it to run a workload at smoke size.
	maxOps int
	plant  faults
}

// cliSweepOptions are cmd/sweep's default sweep options.
func cliSweepOptions() sweep.Options {
	return sweep.Options{
		EscalationFactor: escalateFactor,
		MaxEscalations:   maxEscalations,
		BDDNodeLimit:     1 << 20,
	}
}

// faults plants wrong outputs so tests can show the checks catch them.
// The zero value plants nothing.
type faults struct {
	// wrongMerge redirects one output driver to a primary input of
	// another function in the Rep map handed to sweep.Apply (suite, eco).
	wrongMerge bool
	// flipVerdict inverts every datapath CEC verdict.
	flipVerdict bool
}

// instance is one workload set up from a seed.
type instance interface {
	// pass runs every op of the workload once.
	pass(p *pass)
	// close releases what setup created (files, servers).
	close() error
}

type workload struct {
	name  string
	setup func(cfg config) (instance, error)
}

var workloads = []workload{
	{"suite", setupSuite},
	{"datapath", setupDatapath},
	{"eco", setupEco},
	{"service", setupService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: suite, datapath, eco or service")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 20, "how long to measure; whole passes run until the next would not fit (at least one)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansOut := fs.String("spans", "", "with --trace 1, write the recorded spans as JSON Lines to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs < 0 {
		fmt.Fprintf(stderr, "bench: usage: --workload suite|datapath|eco|service --seed N --seconds S --trace 0|1\n")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, root: root}
	res, err := measure(w, cfg, time.Duration(*secs*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res.report(stderr)
	if *spansOut != "" && res.tr != nil {
		if err := res.tr.write(*spansOut); err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// repoRoot finds the simgen module root at or above the working
// directory; the benchmark reads its datapath corpus from there.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(b)), "module simgen\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no simgen checkout at or above the working directory")
		}
		dir = parent
	}
}

// pass accumulates one run of every op of a workload.
type pass struct {
	tr    *tracer // nil for an untraced pass
	plant faults

	opTimes []time.Duration
	failed  int
	errs    []string
	// loadWall, when set, is the wall time throughput divides by (the
	// service runs ops concurrently); otherwise it is the op time sum.
	loadWall  time.Duration
	admission time.Duration // service: summed submit round trips
	satCalls  int
	counts    map[string]float64
}

func newPass(tr *tracer, plant faults) *pass {
	return &pass{tr: tr, plant: plant, counts: map[string]float64{}}
}

// op runs one unit of product work under opLimit and accounts it. work
// returns the check to run once the op's timer has stopped, so op time
// covers product work only. A panic counts as a failed op.
func (p *pass) op(name string, work func(ctx context.Context, root int32) (check func() error, err error)) {
	ctx, cancel := context.WithTimeout(context.Background(), opLimit)
	defer cancel()
	// Every op starts from a collected heap, so no op pays for garbage an
	// earlier one left behind.
	runtime.GC()
	start := time.Now()
	root := p.tr.openOp(start)
	check, err := protect(func() (func() error, error) { return work(ctx, root) })
	end := time.Now()
	p.tr.close(root, end)
	d := end.Sub(start)
	if err == nil && d > opLimit {
		err = fmt.Errorf("ran %v, past the %v limit", d.Round(time.Millisecond), opLimit)
	}
	if err == nil && check != nil {
		_, err = protect(func() (func() error, error) { return nil, check() })
	}
	p.record(name, d, err)
}

func protect(f func() (func() error, error)) (check func() error, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

func (p *pass) record(name string, d time.Duration, err error) {
	p.opTimes = append(p.opTimes, d)
	if err != nil {
		p.failed++
		p.errs = append(p.errs, fmt.Sprintf("%s: %v", name, err))
	}
}

func (p *pass) add(name string, v float64) { p.counts[name] += v }

// addSweep folds one sweep's accounting into the pass.
func (p *pass) addSweep(r sweep.Result) {
	p.satCalls += r.SATCalls
	for name, v := range map[string]int{
		"sweep.scheduled":      r.Scheduled,
		"sweep.pool_flushes":   r.PoolFlushes,
		"sweep.pool_lanes":     r.PoolLanes,
		"prover.proved":        r.Proved,
		"prover.disproved":     r.Disproved,
		"prover.escalations":   r.Escalations,
		"prover.sim_checks":    r.SimChecks,
		"prover.bdd_checks":    r.BDDChecks,
		"prover.word_checks":   r.WordChecks,
		"prover.word_frontier": r.WordFrontier,
		"pcache.probes":        r.CacheProbes,
		"pcache.hits":          r.CacheHits,
		"pcache.reval_fails":   r.CacheRevalFails,
		"pcache.merged":        r.CacheMerged,
	} {
		p.add(name, float64(v))
	}
	p.add("sat.conflicts", float64(r.Conflicts))
	p.add("sat.propagations", float64(r.Propagations))
	p.add("sat.sweep_s", r.SATTime.Seconds())
}

// rate is the pass's throughput in ops per second.
func (p *pass) rate() float64 {
	busy := p.loadWall
	if busy == 0 {
		busy = sum(p.opTimes)
	}
	return float64(len(p.opTimes)) / busy.Seconds()
}

// result is one run's outcome.
type result struct {
	workload string
	out      output
	passes   []*pass
	tr       *tracer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the JSON line the run prints last.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure sets the workload up setupRepeats times, then runs whole passes
// until the next one would not fit in the measurement time (at least one;
// a traced run alternates untraced and traced passes and runs at least one
// of each).
func measure(w workload, cfg config, length time.Duration, traced bool) (*result, error) {
	cfg.traced = traced
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		t0 := time.Now()
		in, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}

	res := &result{workload: w.name}
	if traced {
		res.tr = newTracer()
	}
	start := time.Now()
	var walls []float64
	for i := 0; ; i++ {
		// Traced runs alternate, starting on the side the seed picks.
		var tr *tracer
		if traced && (int64(i)+cfg.seed)%2 == 1 {
			tr = res.tr
		}
		p := newPass(tr, cfg.plant)
		t0 := time.Now()
		inst.pass(p)
		walls = append(walls, time.Since(t0).Seconds())
		res.passes = append(res.passes, p)
		if time.Since(start).Seconds()+median(walls) > length.Seconds() && (!traced || i >= 1) {
			break
		}
	}
	if err := inst.close(); err != nil {
		return nil, err
	}

	var plain, withTrace []*pass
	for _, p := range res.passes {
		res.out.Attempted += len(p.opTimes)
		res.out.Failed += p.failed
		if p.tr != nil {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
	}
	res.out.Correct = res.out.Failed == 0
	if traced {
		res.out.Metrics = res.perLayer(plain, withTrace)
	} else {
		res.out.Metrics = endToEnd(setups, plain)
	}
	return res, nil
}

// endToEnd computes the metrics a user of the checker sees, from untraced
// passes. Each pass does the same work, so a run reports the median over
// its passes, which a burst of interference in one pass does not move.
func endToEnd(setups []float64, passes []*pass) map[string]metric {
	var rates, p50s, calls []float64
	for _, p := range passes {
		rates = append(rates, p.rate())
		p50s = append(p50s, median(seconds(p.opTimes)))
		calls = append(calls, float64(p.satCalls))
	}
	return map[string]metric{
		"setup_s":     {median(setups), "s"},
		"ops_per_s":   {median(rates), "ops/s"},
		"op_s_p50":    {median(p50s), "s"},
		"sat_calls":   {median(calls), "count"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// ledgerLayers are the layers op time is split into. Each one's self time
// is reported as a share of op time; the shares add up to 100.
var ledgerLayers = []string{
	"mapper", "blif", "sim.random", "sim", "core.gen",
	"sweep", "sweep.apply", "sweep.cec", "sweep.po", "prover",
	"pcache.open", "pcache.session", "pcache.diff", "pcache.replay", "pcache.close",
	"sweepd.queue", "sweepd.exec", "sweepd.transport",
	"other",
}

// perPassCounts are per-layer counts reported as their mean over traced
// passes (every pass does the same work, so they repeat exactly).
var perPassCounts = []string{
	"mapper.luts",
	"core.vectors", "core.decisions", "core.implications", "core.gen_conflicts", "core.backtracks", "core.cost",
	"sweep.scheduled", "sweep.pool_flushes", "sweep.pool_lanes", "sweep.po_calls", "sweep.out_luts",
	"prover.proved", "prover.disproved", "prover.escalations",
	"prover.sim_checks", "prover.bdd_checks", "prover.word_checks", "prover.word_frontier",
	"sat.conflicts", "sat.propagations",
	"pcache.probes", "pcache.reval_fails", "pcache.merged",
	"sweepd.rejected",
}

// ratios are per-layer ratios of two summed counts (0 when the base is 0).
var ratios = []struct{ name, unit, num, den string }{
	{"core.cost_drop_per_vector", "ratio", "core.cost_drop", "core.vectors"},
	{"prover.disproved_frac", "ratio", "prover.disproved", "prover.decided"},
	{"sat.props_per_s", "1/s", "sat.propagations", "sat.sweep_s"},
	{"pcache.hit_frac", "ratio", "pcache.hits", "pcache.probes"},
	{"pcache.mask_frac", "ratio", "pcache.masked", "pcache.nodes"},
}

// perLayer computes the per-layer ledger from the traced passes and the
// tracing overhead against the untraced ones.
func (r *result) perLayer(plain, traced []*pass) map[string]metric {
	self, total := r.tr.selfTimes()
	m := map[string]metric{}
	for _, layer := range ledgerLayers {
		m[layer+".pct"] = metric{share(self[layer], total), "%"}
	}
	counts := map[string]float64{}
	var admission time.Duration
	for _, p := range traced {
		for k, v := range p.counts {
			counts[k] += v
		}
		admission += p.admission
		counts["prover.decided"] += p.counts["prover.proved"] + p.counts["prover.disproved"]
	}
	for _, name := range perPassCounts {
		m[name] = metric{counts[name] / float64(len(traced)), "count"}
	}
	for _, q := range ratios {
		v := 0.0
		if counts[q.den] > 0 {
			v = counts[q.num] / counts[q.den]
		}
		m[q.name] = metric{v, q.unit}
	}
	m["sweepd.admission.pct"] = metric{share(admission, total), "%"}
	rate := func(ps []*pass) float64 {
		var rates []float64
		for _, p := range ps {
			rates = append(rates, p.rate())
		}
		return median(rates)
	}
	m["trace.overhead_pct"] = metric{100 * (rate(plain)/rate(traced) - 1), "%"}
	return m
}

func share(d, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * d.Seconds() / total.Seconds()
}

// report prints a human-readable summary to w.
func (r *result) report(w io.Writer) {
	var ops []float64
	traced := 0
	for _, p := range r.passes {
		ops = append(ops, seconds(p.opTimes)...)
		if p.tr != nil {
			traced++
		}
		for _, e := range p.errs {
			fmt.Fprintf(w, "bench: %s: FAILED %s\n", r.workload, e)
		}
	}
	fmt.Fprintf(w, "bench: %s: %d passes, %d ops, %d failed; op time p50 %.4gs",
		r.workload, len(r.passes), len(ops), r.out.Failed, median(ops))
	if v, pct, ok := tail(ops); ok {
		fmt.Fprintf(w, ", p%.1f %.4gs", pct, v)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(r.out.Metrics))
	for k := range r.out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.out.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	if r.tr != nil {
		self, _ := r.tr.selfTimes()
		fmt.Fprintf(w, "  ledger (self seconds per traced pass):\n")
		for _, layer := range ledgerLayers {
			if d := self[layer]; d > 0 {
				fmt.Fprintf(w, "    %-18s %10.4f s\n", layer, d.Seconds()/float64(traced))
			}
		}
	}
}
