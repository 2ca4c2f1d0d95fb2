package sim

import (
	"context"

	"simgen/internal/network"
)

// Reference evaluates the network with the naive per-node evaluator: a
// fresh Words slice per node, the generic cube loop for every LUT. This is
// the original simulation kernel, retained verbatim as the differential
// oracle for the arena-backed Simulator — it shares no code with the
// specialized kernels, so any bug in kernel dispatch, arena indexing, or
// cone-restricted evaluation shows up as a bit mismatch against it.
//
// Production code should use Simulate or a reusable Simulator; Reference
// exists for tests and benchmarks ("before" arm of the throughput study).
func Reference(net *network.Network, inputs []Words, nwords int) Values {
	vals, _ := ReferenceContext(context.Background(), net, inputs, nwords)
	return vals
}

// ReferenceContext is Reference under a context: it polls for cancellation
// every few thousand nodes and returns (nil, false) when the context ends
// before the simulation does. ok is true when every node was evaluated.
func ReferenceContext(ctx context.Context, net *network.Network, inputs []Words, nwords int) (vals Values, ok bool) {
	if len(inputs) != net.NumPIs() {
		panic("sim: input count does not match PI count")
	}
	vals = make(Values, net.NumNodes())
	for i, pi := range net.PIs() {
		if len(inputs[i]) != nwords {
			panic("sim: input word count mismatch")
		}
		vals[pi] = inputs[i]
	}
	cancellable := ctx != nil && ctx.Done() != nil
	scratch := make(Words, nwords)
	for id := 0; id < net.NumNodes(); id++ {
		if cancellable && id%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, false
		}
		nd := net.Node(network.NodeID(id))
		switch nd.Kind {
		case network.KindPI:
			// already set
		case network.KindConst:
			w := make(Words, nwords)
			if nd.Func.IsConst1() {
				for i := range w {
					w[i] = ^uint64(0)
				}
			}
			vals[id] = w
		case network.KindLUT:
			vals[id] = evalLUT(net, network.NodeID(id), vals, nwords, scratch)
		}
	}
	return vals, true
}

// evalLUT computes the node's output words from its on-set cover:
// OR over cubes of the AND of (possibly complemented) fanin words.
func evalLUT(net *network.Network, id network.NodeID, vals Values, nwords int, scratch Words) Words {
	on, _ := net.Covers(id)
	nd := net.Node(id)
	out := make(Words, nwords)
	for _, cube := range on {
		for w := range scratch {
			scratch[w] = ^uint64(0)
		}
		for i, f := range nd.Fanins {
			v, cared := cube.Has(i)
			if !cared {
				continue
			}
			fw := vals[f]
			if v {
				for w := 0; w < nwords; w++ {
					scratch[w] &= fw[w]
				}
			} else {
				for w := 0; w < nwords; w++ {
					scratch[w] &^= fw[w]
				}
			}
		}
		for w := 0; w < nwords; w++ {
			out[w] |= scratch[w]
		}
	}
	return out
}
