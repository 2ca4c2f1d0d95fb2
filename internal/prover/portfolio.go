package prover

import (
	"context"

	"simgen/internal/network"
	"simgen/internal/obs"
)

// Policy is the portfolio's degradation schedule — what used to be
// hard-coded across the sweep engines' escalation and fallback phases.
type Policy struct {
	// SimPIs enables the exhaustive-simulation engine for pairs whose
	// combined support has at most this many PIs; 0 disables it.
	SimPIs int
	// EscalationFactor multiplies the SAT budgets on each escalation rung;
	// values below 2 mean the default of 4.
	EscalationFactor int
	// MaxEscalations is the number of escalation rungs a budget-exhausted
	// pair may climb before the BDD fallback; 0 disables escalation.
	MaxEscalations int
	// BDDFallback re-checks pairs that exhausted the final rung on the BDD
	// engine under BDDNodeLimit.
	BDDFallback bool
	// BDDNodeLimit bounds the fallback BDD manager's node table; 0 means
	// the manager default.
	BDDNodeLimit int
}

// factor returns the effective ladder multiplier.
func (p Policy) factor() int64 {
	if p.EscalationFactor < 2 {
		return 4
	}
	return int64(p.EscalationFactor)
}

// Portfolio chains engines cheapest-first: free exhaustive-simulation
// proofs for small-support pairs, then the SAT miter up an escalation
// ladder of growing budgets, then canonical BDDs whose cost model (node
// count, not conflicts) settles pairs SAT finds hard. The ladder and
// fallback live here as policy, not engine code.
type Portfolio struct {
	net    *network.Network
	policy Policy
	tr     obs.Tracer

	sim    *Sim // nil when disabled
	sat    *SAT
	bdd    *BDD   // built lazily on first fallback
	prober Prober // cross-run verification memory; nil when disabled
}

// NewPortfolio creates a portfolio over the network with every stage in
// place. Events go to tr (nil means obs.Nop), the lazily built BDD
// fallback's included. pr, when non-nil, is the cross-run verification
// memory, rung 0 of the schedule: every Prove consults it before any
// engine runs, and settled verdicts are recorded back. hook injects test
// faults into the SAT stage (re-consulted on every escalation rung).
func NewPortfolio(net *network.Network, policy Policy, tr obs.Tracer, pr Prober, hook FaultHook) *Portfolio {
	tr = obs.OrNop(tr)
	s := NewSAT(net, tr)
	s.Hook = hook
	p := &Portfolio{net: net, policy: policy, tr: tr, sat: s, prober: pr}
	if policy.SimPIs > 0 {
		p.sim = NewSim(net, policy.SimPIs, tr)
	}
	return p
}

// Prove implements Engine by running the schedule until a stage decides.
func (p *Portfolio) Prove(ctx context.Context, a, b network.NodeID, budget Budget) Result {
	var agg Stats
	if p.prober != nil {
		cp := p.prober.Probe(ctx, a, b)
		agg.CountProbe(cp)
		if cp.Hit {
			return Result{Verdict: cp.Verdict, Cex: cp.Cex, Stats: agg}
		}
	}
	if p.sim != nil {
		r := p.sim.Prove(ctx, a, b, budget)
		agg.Add(r.Stats)
		if r.Verdict != Unknown {
			p.record(a, b, r)
			r.Stats = agg
			return r
		}
	}
	factor := p.policy.factor()
	for rung := 0; rung <= p.policy.MaxEscalations; rung++ {
		if rung > 0 {
			budget = budget.scale(factor)
			agg.Escalations++
			p.tr.Emit(obs.Event{Kind: obs.KindEscalation,
				A: int32(a), B: int32(b), Rung: int32(rung), Budget: budget.Conflicts})
		}
		r := p.sat.Prove(ctx, a, b, budget)
		agg.Add(r.Stats)
		if r.Verdict != Unknown {
			p.record(a, b, r)
			r.Stats = agg
			return r
		}
		if ctx.Err() != nil {
			// Interrupted, not out of budget: higher rungs would fail the
			// same way instantly.
			return Result{Stats: agg}
		}
	}
	if p.policy.BDDFallback {
		r := p.ensureBDD().Prove(ctx, a, b, budget)
		agg.Add(r.Stats)
		if r.Verdict != Unknown {
			p.record(a, b, r)
		}
		r.Stats = agg
		return r
	}
	return Result{Stats: agg}
}

// ensureBDD lazily builds the fallback BDD engine.
func (p *Portfolio) ensureBDD() *BDD {
	if p.bdd == nil {
		p.bdd = NewBDD(p.net, p.policy.BDDNodeLimit, p.tr)
	}
	return p.bdd
}

// record stores a settled verdict back into the verification memory.
func (p *Portfolio) record(a, b network.NodeID, r Result) {
	if p.prober == nil {
		return
	}
	p.prober.RecordProof(a, b, r.Verdict, r.Cex)
}

// Learn implements Engine by teaching the SAT stage; the other stages are
// canonical or stateless.
func (p *Portfolio) Learn(a, b network.NodeID) { p.sat.Learn(a, b) }

// Watch implements Engine; only the SAT stage has interruptible calls.
func (p *Portfolio) Watch(ctx context.Context) (stop func()) { return p.sat.Watch(ctx) }
