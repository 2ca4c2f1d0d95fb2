// Package sim implements bit-parallel circuit simulation and equivalence
// class management for SAT sweeping. Simulation packs 64 input vectors into
// each machine word, evaluating every node of a LUT network with bitwise
// operations over its ISOP cover.
package sim

import (
	"context"
	"math/rand"

	"simgen/internal/network"
)

// Words is the simulation value of one node: bit b of Words[w] is the node's
// output under input vector 64*w+b.
type Words []uint64

// Values holds simulation words for every node of a network, indexed by
// NodeID.
type Values []Words

// Simulate evaluates the network on the given primary-input words.
// inputs[i] holds the words for the i-th primary input (in network.PIs()
// order) and must have nwords entries. The returned Values has one entry
// per node.
//
// Each call compiles a fresh arena-backed Simulator; callers on a hot
// path that simulate the same network repeatedly should hold a Simulator
// and call its Simulate method instead, which reuses the compiled program
// and the arena across calls.
func Simulate(net *network.Network, inputs []Words, nwords int) Values {
	vals, _ := SimulateContext(context.Background(), net, inputs, nwords)
	return vals
}

// cancelCheckEvery is how many nodes SimulateContext evaluates between
// context polls; large enough that the poll is free, small enough that a
// deadline interrupts a multi-million-node simulation within milliseconds.
const cancelCheckEvery = 4096

// SimulateContext is Simulate under a context: it polls for cancellation
// every few thousand nodes and returns (nil, false) when the context ends
// before the simulation does. ok is true when every node was evaluated.
func SimulateContext(ctx context.Context, net *network.Network, inputs []Words, nwords int) (vals Values, ok bool) {
	return NewSimulator(net).SimulateContext(ctx, inputs, nwords)
}

// SimulateVector evaluates the network on a single input vector; assign[i]
// is the value of the i-th primary input. It returns one boolean per node.
func SimulateVector(net *network.Network, assign []bool) []bool {
	inputs := make([]Words, len(assign))
	for i, v := range assign {
		w := make(Words, 1)
		if v {
			w[0] = 1
		}
		inputs[i] = w
	}
	vals := Simulate(net, inputs, 1)
	out := make([]bool, net.NumNodes())
	for id := range out {
		out[id] = vals[id][0]&1 != 0
	}
	return out
}

// MaxExhaustivePIs is the largest PI count ExhaustiveInputs supports: 2^16
// vectors (1024 words per node) is the point past which exhaustive
// enumeration stops being a practical oracle.
const MaxExhaustivePIs = 16

// ExhaustiveInputs enumerates every assignment of the primary inputs: bit m
// of the returned words for PI i is the value of PI i on minterm m, where
// bit i of m is the value of variable i — the same minterm layout as
// tt.Table. Simulating these inputs therefore yields each node's complete
// truth table over the PIs (see tt.FromWords). It panics when the network
// has more than MaxExhaustivePIs inputs.
func ExhaustiveInputs(net *network.Network) ([]Words, int) {
	npi := net.NumPIs()
	if npi > MaxExhaustivePIs {
		panic("sim: too many primary inputs for exhaustive enumeration")
	}
	nwords := 1 << max(0, npi-6)
	inputs := make([]Words, npi)
	for i := range inputs {
		w := make(Words, nwords)
		for j := range w {
			w[j] = ExhaustiveWord(i, j)
		}
		inputs[i] = w
	}
	return inputs, nwords
}

// exhaustivePats are the lane patterns of variables 0..5 within one word.
var exhaustivePats = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// ExhaustiveWord returns word w of variable j in the exhaustive minterm
// layout: bit b of the result is bit j of minterm 64*w+b. Within a word,
// variable j < 6 alternates in blocks of 2^j bits; across words, variable
// j >= 6 alternates in blocks of 2^(j-6) whole words. Enumerating k
// variables takes 1 << max(0, k-6) words.
func ExhaustiveWord(j, w int) uint64 {
	if j < 6 {
		return exhaustivePats[j]
	}
	if (w>>(j-6))&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// RandomInputs draws nwords random words for every primary input.
func RandomInputs(net *network.Network, nwords int, rng *rand.Rand) []Words {
	inputs := make([]Words, net.NumPIs())
	for i := range inputs {
		w := make(Words, nwords)
		for j := range w {
			w[j] = rng.Uint64()
		}
		inputs[i] = w
	}
	return inputs
}

// PackVectors packs single-bit vectors into words, one word lane per
// vector. vectors[v][i] is the value of PI i under vector v. Unused
// trailing bit positions are zero — they are NOT valid vectors. Callers
// that refine equivalence classes from a partial final word must bound
// the refinement with Classes.RefineN(vals, len(vectors)) (or pad the
// vector list themselves); the counterexample pools in internal/sweep
// control their padding explicitly this way.
//
// Packing is word-at-a-time: each output word is assembled in a register
// from up to 64 vectors before a single store.
func PackVectors(net *network.Network, vectors [][]bool) ([]Words, int) {
	if len(vectors) == 0 {
		return nil, 0
	}
	npi := net.NumPIs()
	nvec := len(vectors)
	nwords := (nvec + 63) / 64
	inputs := make([]Words, npi)
	backing := make(Words, npi*nwords)
	for i := 0; i < npi; i++ {
		w := backing[i*nwords : (i+1)*nwords : (i+1)*nwords]
		for wi := 0; wi < nwords; wi++ {
			base := wi * 64
			n := nvec - base
			if n > 64 {
				n = 64
			}
			var word uint64
			for b := 0; b < n; b++ {
				if vectors[base+b][i] {
					word |= 1 << uint(b)
				}
			}
			w[wi] = word
		}
		inputs[i] = w
	}
	return inputs, nwords
}

// Signature returns a hash of one node's simulation words, used for class
// refinement.
func Signature(w Words) uint64 {
	h := uint64(1469598103934665603)
	for _, x := range w {
		h ^= x
		h *= 1099511628211
	}
	return h
}

// PO evaluates the driver words of each primary output.
func PO(net *network.Network, vals Values) []Words {
	out := make([]Words, net.NumPOs())
	for i, po := range net.POs() {
		out[i] = vals[po.Driver]
	}
	return out
}
