package prover

import (
	"fmt"
	"time"

	"context"

	"simgen/internal/cnf"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/sat"
)

// SAT proves pairs with incremental CNF miters: both fanin cones are
// Tseitin-encoded once into a persistent solver, the XOR output is assumed
// (never asserted, so later calls stay unconstrained), and UNSAT proves the
// equivalence. Budgets map directly onto the solver's conflict/propagation
// limits — this engine owns the whole budget/interrupt surface, callers
// never touch the solver.
type SAT struct {
	// Hook, when set, is consulted at the start of every Prove call and may
	// inject a failure for that pair; because the portfolio re-invokes
	// Prove per escalation rung, the hook is re-consulted on every rung.
	// Testing only.
	Hook FaultHook

	solver *sat.Solver
	enc    *cnf.Encoder
	tr     obs.Tracer
}

// NewSAT creates a SAT-miter engine over the network whose events go to tr
// (nil means obs.Nop).
func NewSAT(net *network.Network, tr obs.Tracer) *SAT {
	solver := sat.New()
	return &SAT{solver: solver, enc: cnf.NewEncoder(net, solver), tr: obs.OrNop(tr)}
}

// Prove implements Engine: one Solve call under the given budget.
func (e *SAT) Prove(ctx context.Context, a, b network.NodeID, budget Budget) Result {
	var res Result
	e.tr.Emit(obs.Event{Kind: obs.KindProveStart, Engine: "sat",
		A: int32(a), B: int32(b), Budget: budget.Conflicts})
	if e.Hook != nil {
		switch e.Hook(a, b) {
		case FaultUnknown:
			res.Stats.SATCalls++
			e.emitVerdict(a, b, res)
			return res
		case FaultPanic:
			panic(fmt.Sprintf("prover: injected fault on pair (%d,%d)", a, b))
		case FaultAssumeEqual:
			res.Stats.SATCalls++
			res.Verdict = Equal
			e.emitVerdict(a, b, res)
			return res
		}
	}
	e.solver.SetBudget(budget.Conflicts, budget.Propagations)
	x := e.enc.Miter(a, b)
	before := e.solver.Stats
	start := time.Now()
	status := e.solver.Solve(x)
	res.Stats.SATTime = time.Since(start)
	res.Stats.SATCalls++
	res.Stats.Conflicts = e.solver.Stats.Conflicts - before.Conflicts
	res.Stats.Propagations = e.solver.Stats.Propagations - before.Propagations
	switch status {
	case sat.Unsat:
		res.Verdict = Equal
	case sat.Sat:
		res.Verdict = Differ
		res.Cex = e.enc.Model()
	}
	e.emitVerdict(a, b, res)
	return res
}

// emitVerdict reports one finished Prove call with its budget spend.
func (e *SAT) emitVerdict(a, b network.NodeID, res Result) {
	e.tr.Emit(obs.Event{Kind: obs.KindProveVerdict, Engine: "sat",
		A: int32(a), B: int32(b), Verdict: int8(res.Verdict),
		Conflicts: res.Stats.Conflicts, Props: res.Stats.Propagations,
		Dur: res.Stats.SATTime})
}

// Learn implements Engine: the equality is asserted as two clauses, making
// later miters over the merged cones trivially propagated.
func (e *SAT) Learn(a, b network.NodeID) {
	e.enc.LearnEqual(a, b)
}

// Watch implements Engine by interrupting the solver on cancellation. The
// interrupt is sticky: an abandoned run keeps failing fast, which is what
// deadline-cut sweeps want.
func (e *SAT) Watch(ctx context.Context) (stop func()) {
	return e.solver.WatchContext(ctx)
}
