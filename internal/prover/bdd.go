package prover

import (
	"context"
	"errors"
	"time"

	"simgen/internal/bdd"
	"simgen/internal/network"
	"simgen/internal/obs"
)

// BDD proves pairs on canonical decision diagrams. Equivalence queries are
// constant-time reference comparisons once the BDDs exist, but construction
// can blow up exponentially — the manager's node limit bounds each check,
// so Budget is ignored and a blow-up yields Unknown, as does a context
// that ends mid-build.
type BDD struct {
	builder *bdd.Builder
	tr      obs.Tracer
}

// NewBDD creates a BDD engine whose events go to tr (nil means obs.Nop);
// maxNodes bounds the node table (0 = the manager default).
func NewBDD(net *network.Network, maxNodes int, tr obs.Tracer) *BDD {
	b := bdd.NewBuilder(net)
	b.M.MaxNodes = maxNodes
	return &BDD{builder: b, tr: obs.OrNop(tr)}
}

// Prove implements Engine.
func (e *BDD) Prove(ctx context.Context, a, b network.NodeID, _ Budget) Result {
	var res Result
	e.tr.Emit(obs.Event{Kind: obs.KindProveStart, Engine: "bdd",
		A: int32(a), B: int32(b)})
	start := time.Now()
	cex, differ, err := e.builder.Counterexample(ctx, a, b)
	res.Stats.SATTime = time.Since(start)
	res.Stats.BDDChecks++
	switch {
	case err != nil && ctx.Err() != nil:
		// Interrupted between node builds: Unknown, not a blow-up.
	case err != nil:
		if !errors.Is(err, bdd.ErrNodeLimit) {
			panic(err) // builder errors other than blow-up are bugs
		}
		res.Stats.BDDBlowups++
		e.tr.Emit(obs.Event{Kind: obs.KindBDDBlowup, A: int32(a), B: int32(b)})
	case !differ:
		res.Verdict = Equal
	default:
		res.Verdict = Differ
		res.Cex = cex
	}
	e.tr.Emit(obs.Event{Kind: obs.KindProveVerdict, Engine: "bdd",
		A: int32(a), B: int32(b), Verdict: int8(res.Verdict), Dur: res.Stats.SATTime})
	return res
}

// Learn implements Engine. Canonical representations need no hints: a
// proven-equal pair already shares one BDD node.
func (e *BDD) Learn(a, b network.NodeID) {}

// Watch implements Engine. Prove polls its context before every node
// build, so there is nothing to arm.
func (e *BDD) Watch(ctx context.Context) (stop func()) { return func() {} }
