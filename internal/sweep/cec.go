package sweep

import (
	"context"
	"fmt"
	"time"

	"simgen/internal/core"
	"simgen/internal/network"
	"simgen/internal/prover"
	"simgen/internal/sim"
)

// POPair links the two PO drivers of a combined miter network that must be
// proven equal.
type POPair struct {
	Name string
	A, B network.NodeID
}

// Combine builds a single network containing both circuits over shared
// primary inputs, returning the PO pairs to compare. The circuits must have
// the same number of PIs (matched by position) and POs.
func Combine(a, b *network.Network) (*network.Network, []POPair, error) {
	if a.NumPIs() != b.NumPIs() {
		return nil, nil, fmt.Errorf("PI count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return nil, nil, fmt.Errorf("PO count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())
	}
	m := network.New(a.Name + "_vs_" + b.Name)
	mapA := copyInto(m, a, nil)
	// Share the PIs: network b's PIs map to the same nodes.
	sharedPIs := make([]network.NodeID, a.NumPIs())
	for i, pi := range a.PIs() {
		sharedPIs[i] = mapA[pi]
	}
	mapB := copyInto(m, b, sharedPIs)

	pairs := make([]POPair, a.NumPOs())
	for i, poA := range a.POs() {
		poB := b.POs()[i]
		da, db := mapA[poA.Driver], mapB[poB.Driver]
		m.AddPO(poA.Name+"_a", da)
		m.AddPO(poB.Name+"_b", db)
		pairs[i] = POPair{Name: poA.Name, A: da, B: db}
	}
	return m, pairs, nil
}

// copyInto clones src's nodes into dst. When pis is non-nil, src's primary
// inputs are mapped onto the given existing nodes instead of creating new
// ones. It returns the node mapping.
func copyInto(dst, src *network.Network, pis []network.NodeID) map[network.NodeID]network.NodeID {
	mapping := make(map[network.NodeID]network.NodeID, src.NumNodes())
	piIdx := 0
	for id := 0; id < src.NumNodes(); id++ {
		nid := network.NodeID(id)
		nd := src.Node(nid)
		switch nd.Kind {
		case network.KindPI:
			if pis != nil {
				mapping[nid] = pis[piIdx]
			} else {
				mapping[nid] = dst.AddPI(nd.Name)
			}
			piIdx++
		case network.KindConst:
			mapping[nid] = dst.AddConst(nd.Func.IsConst1())
		case network.KindLUT:
			fanins := make([]network.NodeID, len(nd.Fanins))
			for i, f := range nd.Fanins {
				fanins[i] = mapping[f]
			}
			mapping[nid] = dst.AddLUT("", fanins, nd.Func)
		}
	}
	return mapping
}

// CECResult is the outcome of an equivalence check.
type CECResult struct {
	Equivalent bool
	// Undecided is set when a deadline, cancellation, or exhausted budgets
	// (after escalation and BDD fallback) left at least one output pair
	// unproven either way; Equivalent is false but no counterexample
	// exists.
	Undecided bool
	// UndecidedPO names the first output the check could not settle.
	UndecidedPO string
	// Counterexample is a PI assignment separating the circuits when they
	// are not equivalent.
	Counterexample []bool
	// FailedPO names the first differing output.
	FailedPO string
	Sweep    Result
	POCalls  int
	POTime   time.Duration
}

// CECOptions configures the paper's flow: Refine's simulation half, then
// the Sweep, and for CEC the per-output checks. DefaultCECOptions holds
// the defaults every front end starts from, and Check is the one range
// rule they all apply. RandomRounds, GuidedIterations and Method do
// nothing on a network of at most prover.DefaultSimPIs inputs, which
// Refine enumerates instead.
type CECOptions struct {
	Sweep Options
	// RandomRounds is the number of 64-vector random simulation rounds
	// seeding the classes; 0 means 1 for Refine and 2 for CEC.
	RandomRounds int
	// GuidedIterations, when > 0, is the most guided iterations run
	// before sweeping; the guided driver stops earlier once the cost has
	// been flat for 3 (core.Runner.RunContext).
	GuidedIterations int
	// Method names the guided vector source in core's method table
	// (core.NewSource): "simgen" (the default when empty), "revs", "none"
	// and the other Table 1 strategies.
	Method string
	// Seed drives all randomized steps.
	Seed int64
	// Workers sweeps with this many parallel workers when > 1.
	Workers int
}

// Flow defaults that this package also reads outside DefaultCECOptions.
const (
	defaultMethod   = "simgen"
	defaultBDDNodes = 1 << 20
)

// DefaultCECOptions returns the flow's defaults, the ones cmd/sweep and
// cmd/simgen register their flags with and sweepd fills unset job fields
// from. RandomRounds stays 0.
func DefaultCECOptions() CECOptions {
	return CECOptions{
		Sweep: Options{
			Engine:           EngineSAT,
			EscalationFactor: 4,
			MaxEscalations:   2,
			BDDNodeLimit:     defaultBDDNodes,
		},
		GuidedIterations: 20,
		Method:           defaultMethod,
		Seed:             1,
		Workers:          1,
	}
}

// Check reports the first setting out of range: a Method outside core's
// method table (Refine reads an empty one as "simgen" first), an unknown
// engine kind, or a negative count, budget or ladder limit. A negative
// SimPIs or RetryLimit and an EscalationFactor below 2 keep their
// documented meanings. The error names the setting and carries no package
// prefix: each front end prints it under its own name.
func (o CECOptions) Check() error {
	if err := core.CheckMethod(o.Method); err != nil {
		return err
	}
	if !o.Sweep.Engine.known() {
		return fmt.Errorf("unknown engine kind %d", int(o.Sweep.Engine))
	}
	for _, v := range []struct {
		name string
		val  int64
	}{
		{"iterations", int64(o.GuidedIterations)},
		{"random rounds", int64(o.RandomRounds)},
		{"workers", int64(o.Workers)},
		{"conflict budget", o.Sweep.ConflictBudget},
		{"propagation budget", o.Sweep.PropagationBudget},
		{"max pairs", int64(o.Sweep.MaxPairs)},
		{"escalation rungs", int64(o.Sweep.MaxEscalations)},
		{"BDD node limit", int64(o.Sweep.BDDNodeLimit)},
	} {
		if v.val < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", v.name, v.val)
		}
	}
	return nil
}

// CEC checks combinational equivalence of two networks using simulation,
// SAT sweeping, and final per-output SAT calls. Circuits of at most
// prover.DefaultSimPIs inputs are enumerated on the combined network: the
// sweep merges every equal pair without an engine call, and an output pair
// left unmerged still gets its counterexample from the engine.
func CEC(a, b *network.Network, opts CECOptions) (CECResult, error) {
	return CECContext(context.Background(), a, b, opts)
}

// CECContext is CEC under a context: cancellation or a deadline stops the
// guided simulation, the sweep, and the per-output SAT calls promptly,
// returning an Undecided verdict with partial sweep accounting rather than
// an error. Output pairs whose SAT call exhausts its budget climb the same
// escalation ladder as sweeping pairs and finally fall back to the BDD
// engine when Options.BDDFallback is set. Settings that Check rejects are
// an error, as for Refine.
func CECContext(ctx context.Context, a, b *network.Network, opts CECOptions) (CECResult, error) {
	m, pairs, err := Combine(a, b)
	if err != nil {
		return CECResult{}, err
	}
	if opts.RandomRounds == 0 {
		opts.RandomRounds = 2
	}
	ref, err := Refine(ctx, m, opts)
	if err != nil {
		return CECResult{}, err
	}

	// The sweeper reuses the runner's compiled simulator for its
	// counterexample pool; sequential and parallel sweeps are the same
	// scheduler at different worker counts.
	sw := newSweeper(m, ref.Run.Classes, opts.Sweep, ref.Run.Simulator())
	res := CECResult{Equivalent: true}
	res.Sweep = sw.sched.run(ctx, opts.Workers)

	// Final check per PO pair, on the same primary engine the scheduler
	// swept with: its learned equalities typically make these calls
	// trivial, and the engine owns the whole escalation ladder and BDD
	// fallback — there is no separate PO prove-path.
	eng := sw.engine()
	stop := eng.Watch(ctx)
	defer stop()
	for _, p := range pairs {
		if sw.Rep(p.A) == sw.Rep(p.B) {
			continue // proven during sweeping
		}
		if ctx.Err() != nil {
			res.Equivalent = false
			res.Undecided = true
			res.UndecidedPO = p.Name
			return res, nil
		}
		pr := eng.Prove(ctx, p.A, p.B, sw.sched.budget)
		res.POCalls += pr.Stats.SATCalls + pr.Stats.BDDChecks + pr.Stats.SimChecks
		res.POTime += pr.Stats.SATTime
		switch pr.Verdict {
		case prover.Equal:
			continue
		case prover.Differ:
			res.Equivalent = false
			res.Counterexample = pr.Cex
			res.FailedPO = p.Name
			return res, nil
		default:
			res.Equivalent = false
			res.Undecided = true
			res.UndecidedPO = p.Name
			return res, nil
		}
	}
	return res, nil
}

// VerifyCounterexample confirms that a CEC counterexample separates the two
// original circuits; used by tests and the CLI.
func VerifyCounterexample(a, b *network.Network, cex []bool) (bool, string) {
	outA := sim.SimulateVector(a, cex)
	outB := sim.SimulateVector(b, cex)
	for i, poA := range a.POs() {
		poB := b.POs()[i]
		if outA[poA.Driver] != outB[poB.Driver] {
			return true, poA.Name
		}
	}
	return false, ""
}
