package prover

import (
	"context"
	"math/bits"
	"time"

	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/sim"
)

// DefaultSimPIs is the default combined-support cutoff for the exhaustive
// simulation engine: 2^12 assignments fit in 64 words, so a proof costs a
// few microseconds of pure simulation — free next to any SAT call.
const DefaultSimPIs = 12

// Sim proves pairs whose combined structural support is small by simulating
// all 2^k assignments of the supporting primary inputs word-parallel over
// the two fanin cones. The verdict is exact: equal words prove equivalence
// outright, a differing lane is a counterexample. Pairs over the cutoff
// return Unknown without running. Budget is ignored — the cutoff is the
// budget.
type Sim struct {
	net    *network.Network
	maxPIs int
	tr     obs.Tracer
	cone   *network.Cone // the pair's union cone, walked once per proof

	// kernel is the cone evaluator, compiled on the first proof. Compiling
	// reads the network's lazily cached covers (see network.Warm).
	kernel *sim.Simulator
}

// NewSim creates an exhaustive-simulation engine whose events go to tr
// (nil means obs.Nop); maxPIs <= 0 means DefaultSimPIs.
func NewSim(net *network.Network, maxPIs int, tr obs.Tracer) *Sim {
	if maxPIs <= 0 {
		maxPIs = DefaultSimPIs
	}
	return &Sim{net: net, maxPIs: maxPIs, tr: obs.OrNop(tr), cone: network.NewCone(net)}
}

// Support walks the pair's union fanin cone into c (a's cone, then the
// rest of b's) and returns the primary inputs in it, in walk order: the
// combined structural support. c keeps the cone for the Simulator's
// SimulateCone and SimulateConeExhaustive, whose PI order it matches.
func Support(net *network.Network, c *network.Cone, a, b network.NodeID) []network.NodeID {
	c.Reset()
	c.Add(a, nil)
	c.Add(b, nil)
	var pis []network.NodeID
	for _, id := range c.Nodes {
		if net.Node(id).Kind == network.KindPI {
			pis = append(pis, id)
		}
	}
	return pis
}

// Prove implements Engine. Declined pairs (support over the cutoff) emit
// no events: the engine did no work for them.
func (e *Sim) Prove(ctx context.Context, a, b network.NodeID, _ Budget) Result {
	support := Support(e.net, e.cone, a, b)
	if len(support) > e.maxPIs {
		return Result{} // declined: Unknown with zero stats
	}
	var res Result
	e.tr.Emit(obs.Event{Kind: obs.KindProveStart, Engine: "sim",
		A: int32(a), B: int32(b)})
	start := time.Now()
	res.Verdict, res.Cex = e.enumerate(a, b, support)
	res.Stats.SATTime = time.Since(start)
	res.Stats.SimChecks++
	e.tr.Emit(obs.Event{Kind: obs.KindProveVerdict, Engine: "sim",
		A: int32(a), B: int32(b), Verdict: int8(res.Verdict), Dur: res.Stats.SATTime})
	return res
}

// enumerate simulates all 2^k support assignments over the union cone
// Support walked (support[j] is variable j, the cone's j-th PI) and
// compares the roots.
func (e *Sim) enumerate(a, b network.NodeID, support []network.NodeID) (Verdict, []bool) {
	if e.kernel == nil {
		e.kernel = sim.NewSimulator(e.net)
	}
	vals := e.kernel.SimulateConeExhaustive(e.cone)

	va, vb := vals[a], vals[b]
	for w := range va {
		if d := va[w] ^ vb[w]; d != 0 {
			// Lanes beyond 2^k (k < 6) replicate real assignments modulo
			// 2^k, so any differing lane decodes to a valid assignment.
			m := w*64 + bits.TrailingZeros64(d)
			cex := make([]bool, e.net.NumPIs())
			pos := make(map[network.NodeID]int, e.net.NumPIs())
			for i, pi := range e.net.PIs() {
				pos[pi] = i
			}
			for j, pi := range support {
				if (m>>uint(j))&1 == 1 {
					cex[pos[pi]] = true
				}
			}
			return Differ, cex
		}
	}
	return Equal, nil
}

// Learn implements Engine: exhaustive simulation has no state to teach.
func (e *Sim) Learn(a, b network.NodeID) {}

// Watch implements Engine: each check is bounded by the PI cutoff.
func (e *Sim) Watch(ctx context.Context) (stop func()) { return func() {} }
