package main

import (
	"fmt"
	"math/rand"

	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/sweep"
)

// The checks below compare the program's outputs with answers it did not
// produce: sim.Reference (the naive evaluator kept as a differential
// oracle, sharing no code with the production simulator) and the datapath
// corpus's known verdicts. None of them calls sweep.CEC or
// sweep.VerifyCounterexample.

// checkWords is the number of 64-vector words a reduced network is
// compared on (1024 vectors).
const checkWords = 16

// checkInputs returns seeded random words for npi primary inputs.
func checkInputs(npi int, seed int64) []sim.Words {
	rng := rand.New(rand.NewSource(seed))
	in := make([]sim.Words, npi)
	for i := range in {
		in[i] = make(sim.Words, checkWords)
		for w := range in[i] {
			in[i][w] = rng.Uint64()
		}
	}
	return in
}

// checkReduced reports whether the swept network computes the same outputs
// as the network it was reduced from on 1024 seeded vectors.
func checkReduced(orig, reduced *network.Network, seed int64) error {
	if reduced.NumPIs() != orig.NumPIs() || reduced.NumPOs() != orig.NumPOs() {
		return fmt.Errorf("reduced network has %d PIs / %d POs, want %d / %d",
			reduced.NumPIs(), reduced.NumPOs(), orig.NumPIs(), orig.NumPOs())
	}
	in := checkInputs(orig.NumPIs(), seed)
	want := sim.Reference(orig, in, checkWords)
	got := sim.Reference(reduced, in, checkWords)
	for i, po := range orig.POs() {
		a, b := want[po.Driver], got[reduced.POs()[i].Driver]
		for w := range a {
			if a[w] != b[w] {
				return fmt.Errorf("reduced network differs on output %s", po.Name)
			}
		}
	}
	return nil
}

// checkCounterexample reports whether cex drives some output pair of a and
// b (matched by position) to different values.
func checkCounterexample(a, b *network.Network, cex []bool) error {
	if len(cex) != a.NumPIs() || a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return fmt.Errorf("counterexample of %d bits for circuits with %d and %d PIs", len(cex), a.NumPIs(), b.NumPIs())
	}
	in := make([]sim.Words, len(cex))
	for i, v := range cex {
		in[i] = sim.Words{0}
		if v {
			in[i][0] = 1
		}
	}
	va, vb := sim.Reference(a, in, 1), sim.Reference(b, in, 1)
	for i, po := range a.POs() {
		if (va[po.Driver][0]^vb[b.POs()[i].Driver][0])&1 != 0 {
			return nil
		}
	}
	return fmt.Errorf("counterexample does not separate the circuits")
}

// checkSwept fails an incomplete sweep and a reduced network that does
// not compute its input's outputs.
func checkSwept(res sweep.Result, net, reduced *network.Network, seed int64) error {
	if res.Incomplete || res.Unresolved > 0 {
		return fmt.Errorf("undecided: %d pairs unresolved (incomplete %v)", res.Unresolved, res.Incomplete)
	}
	return checkReduced(net, reduced, seed)
}

// planted is the reduced network to check: the op's own, or one applied
// from a Rep map with a wrong merge planted when the pass plants faults.
func (p *pass) planted(net *network.Network, rep func(network.NodeID) network.NodeID, reduced *network.Network, seed int64) *network.Network {
	if !p.plant.wrongMerge {
		return reduced
	}
	return sweep.Apply(net, plantWrongMerge(net, rep, seed))
}

// plantWrongMerge returns a Rep map that also merges the first output
// driver that some primary input disagrees with (on the check vectors)
// into that input — a merge no sound sweep makes.
func plantWrongMerge(net *network.Network, rep func(network.NodeID) network.NodeID, seed int64) func(network.NodeID) network.NodeID {
	in := checkInputs(net.NumPIs(), seed)
	vals := sim.Reference(net, in, checkWords)
	for _, po := range net.POs() {
		d := rep(po.Driver)
		for _, pi := range net.PIs() {
			if pi == d || !differ(vals[d], vals[pi]) {
				continue
			}
			return func(id network.NodeID) network.NodeID {
				if r := rep(id); r != d {
					return r
				}
				return pi
			}
		}
	}
	return rep
}

func differ(a, b sim.Words) bool {
	for w := range a {
		if a[w] != b[w] {
			return true
		}
	}
	return false
}
