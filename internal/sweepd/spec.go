// Package sweepd implements the resident verification service behind
// cmd/sweepd: an HTTP/JSON job queue that runs CEC, sweep, and simgen jobs
// concurrently on a shared worker pool with per-job budgets and deadlines,
// bounded-queue admission control (429 + Retry-After under load), per-job
// status polling, streamed JSONL traces, end-of-run obs reports, job
// cancellation, and graceful drain.
//
// One resident process amortizes what a cold-started CLI pays per circuit:
// generated benchmark networks are parsed, mapped, and cover-warmed once
// and shared read-only across jobs, the metrics registry aggregates every
// job into one /metrics endpoint, and the pool keeps exactly as many prover
// stacks hot as there are workers.
package sweepd

import (
	"fmt"
	"time"

	"simgen/internal/sweep"
)

// Job kinds.
const (
	// KindSweep runs guided simulation then SAT sweeping on one circuit.
	KindSweep = "sweep"
	// KindCEC checks combinational equivalence of two circuits.
	KindCEC = "cec"
	// KindSimGen runs pattern generation and class refinement only.
	KindSimGen = "simgen"
)

// CircuitRef names one circuit for a job: exactly one source must be set.
type CircuitRef struct {
	// BLIF is an inline BLIF payload.
	BLIF string `json:"blif,omitempty"`
	// Bench is an inline ISCAS-85 .bench payload.
	Bench string `json:"bench,omitempty"`
	// AIGER is an inline ASCII AIGER payload (mapped into 6-LUTs).
	AIGER string `json:"aiger,omitempty"`
	// Benchmark names a built-in generated benchmark, of the paper suite
	// or the datapath family (cached and shared across jobs by the
	// service).
	Benchmark string `json:"benchmark,omitempty"`
	// Path is a server-side circuit file relative to the service's data
	// root (-data); rejected when the service runs without one.
	Path string `json:"path,omitempty"`
}

// set counts how many sources the ref carries.
func (c CircuitRef) set() int {
	n := 0
	for _, s := range []string{c.BLIF, c.Bench, c.AIGER, c.Benchmark, c.Path} {
		if s != "" {
			n++
		}
	}
	return n
}

// empty reports a fully unset ref.
func (c CircuitRef) empty() bool { return c.set() == 0 }

// JobSpec is the JSON body of POST /jobs.
type JobSpec struct {
	// Kind selects the pipeline: "sweep", "cec", or "simgen".
	Kind string `json:"kind"`

	// Circuit is the (first) circuit; CircuitB is CEC's second circuit.
	Circuit  CircuitRef `json:"circuit"`
	CircuitB CircuitRef `json:"circuit_b"`

	// Method selects the guided vector source from core's method table:
	// "simgen" (default, = "ai+dc+mffc"), "ai+dc", "ai+rd", "si+rd",
	// "revs", "rands", or "none".
	Method string `json:"method,omitempty"`
	// Iterations is the most guided iterations a job runs (default 20;
	// jobs with Method "none" skip them regardless). The guided driver
	// stops earlier once the cost has been flat for 3.
	Iterations int `json:"iterations,omitempty"`
	// RandRounds seeds the classes with this many 64-vector random rounds
	// (0 = 1 for sweep/simgen, 2 for cec).
	RandRounds int `json:"random_rounds,omitempty"`
	// Seed drives every randomized step (default 1).
	Seed int64 `json:"seed,omitempty"`

	// Engine is the proof engine: "sat" (default), "bdd" or "portfolio".
	Engine string `json:"engine,omitempty"`
	// Workers is the sweeping worker count inside the job (default 1;
	// workers=1 with Deterministic gives byte-stable traces).
	Workers int `json:"workers,omitempty"`

	// ConflictBudget / PropagationBudget bound each SAT call (0 =
	// unlimited); MaxPairs bounds the job's total prover calls.
	ConflictBudget    int64 `json:"conflict_budget,omitempty"`
	PropagationBudget int64 `json:"propagation_budget,omitempty"`
	MaxPairs          int   `json:"max_pairs,omitempty"`
	// Escalate / MaxEscalations / BDDFallback / BDDNodes configure the
	// budget-escalation ladder (defaults are cmd/sweep's, from
	// sweep.DefaultCECOptions: factor 4, two rungs, no BDD fallback,
	// 2^20 nodes).
	Escalate       int  `json:"escalate,omitempty"`
	MaxEscalations *int `json:"max_escalations,omitempty"`
	BDDFallback    bool `json:"bdd_fallback,omitempty"`
	BDDNodes       int  `json:"bdd_nodes,omitempty"`

	// TimeoutMS is the job's wall-clock budget in milliseconds; 0 uses the
	// service default. The service cap (-max-timeout) clamps it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Trace buffers a JSONL event trace served (and streamed live) at
	// GET /jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
	// Deterministic suppresses wall-clock trace fields so a workers=1
	// trace is byte-stable for the seed.
	Deterministic bool `json:"deterministic,omitempty"`
}

// normalize fills unset fields in place from the flow's defaults
// (sweep.DefaultCECOptions). RandRounds stays 0, which the flow reads as
// 1 round for sweep and simgen jobs and 2 for cec.
func (sp *JobSpec) normalize() {
	d := sweep.DefaultCECOptions()
	if sp.Method == "" {
		sp.Method = d.Method
	}
	if sp.Iterations == 0 {
		sp.Iterations = d.GuidedIterations
	}
	if sp.Seed == 0 {
		sp.Seed = d.Seed
	}
	if sp.Engine == "" {
		sp.Engine = d.Sweep.Engine.String()
	}
	if sp.Workers == 0 {
		sp.Workers = d.Workers
	}
	if sp.Escalate == 0 {
		sp.Escalate = d.Sweep.EscalationFactor
	}
	if sp.MaxEscalations == nil {
		sp.MaxEscalations = &d.Sweep.MaxEscalations
	}
	if sp.BDDNodes == 0 {
		sp.BDDNodes = d.Sweep.BDDNodeLimit
	}
}

// validate rejects malformed specs; it assumes normalize ran. The flow's
// settings get the range check every front end applies,
// sweep.CECOptions.Check.
func (sp *JobSpec) validate() error {
	switch sp.Kind {
	case KindSweep, KindSimGen:
		if !sp.CircuitB.empty() {
			return fmt.Errorf("%s jobs take a single circuit", sp.Kind)
		}
	case KindCEC:
		if n := sp.CircuitB.set(); n != 1 {
			return fmt.Errorf("cec jobs need exactly one circuit_b source, got %d", n)
		}
	default:
		return fmt.Errorf("unknown job kind %q (want sweep|cec|simgen)", sp.Kind)
	}
	if n := sp.Circuit.set(); n != 1 {
		return fmt.Errorf("jobs need exactly one circuit source, got %d", n)
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", sp.TimeoutMS)
	}
	if _, err := sweep.ParseEngine(sp.Engine); err != nil {
		return err
	}
	return sp.flowOptions(sp.sweepOptions()).Check()
}

// sweepOptions translates the spec into the scheduler's options; the caller
// attaches the job's tracer.
func (sp *JobSpec) sweepOptions() sweep.Options {
	opts := sweep.Options{
		ConflictBudget:    sp.ConflictBudget,
		PropagationBudget: sp.PropagationBudget,
		MaxPairs:          sp.MaxPairs,
		EscalationFactor:  sp.Escalate,
		MaxEscalations:    *sp.MaxEscalations,
		BDDFallback:       sp.BDDFallback,
		BDDNodeLimit:      sp.BDDNodes,
	}
	kind, err := sweep.ParseEngine(sp.Engine)
	if err == nil {
		opts.Engine = kind
	}
	return opts
}

// flowOptions wraps the job-scoped sweep options in the flow the job runs
// (sweep.Refine, then the sweep or CEC).
func (sp *JobSpec) flowOptions(opts sweep.Options) sweep.CECOptions {
	return sweep.CECOptions{Sweep: opts, RandomRounds: sp.RandRounds, GuidedIterations: sp.Iterations,
		Method: sp.Method, Seed: sp.Seed, Workers: sp.Workers}
}

// timeout resolves the job's wall-clock budget against the service default
// and cap; 0 means unbounded.
func (sp *JobSpec) timeout(def, max time.Duration) time.Duration {
	d := time.Duration(sp.TimeoutMS) * time.Millisecond
	if d == 0 {
		d = def
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d
}

// Result is the JSON outcome of a finished job.
type Result struct {
	Kind string `json:"kind"`
	// Verdict summarizes the outcome: sweep jobs report "swept" or
	// "undecided" (budgets or deadline stopped the sweep), cec jobs report
	// "equivalent", "not_equivalent", or "undecided", simgen jobs report
	// "refined".
	Verdict string `json:"verdict"`

	// Circuit statistics ("pis=... pos=... luts=...") of the (combined)
	// network the job ran on.
	Circuit string `json:"circuit,omitempty"`

	// InitialCost/GuidedCost/FinalCost track the Eq. (5) partition cost
	// after random simulation, after guided refinement, and after
	// sweeping.
	InitialCost int `json:"initial_cost,omitempty"`
	GuidedCost  int `json:"guided_cost,omitempty"`
	FinalCost   int `json:"final_cost"`

	// Sweep carries the scheduler's full accounting (sweep and cec jobs).
	Sweep *sweep.Result `json:"sweep,omitempty"`

	// CEC-only fields.
	Equivalent     bool   `json:"equivalent,omitempty"`
	FailedPO       string `json:"failed_po,omitempty"`
	UndecidedPO    string `json:"undecided_po,omitempty"`
	Counterexample []bool `json:"counterexample,omitempty"`
	POCalls        int    `json:"po_calls,omitempty"`

	// ElapsedMS is the job's execution wall time (queue wait excluded).
	ElapsedMS int64 `json:"elapsed_ms"`
}
