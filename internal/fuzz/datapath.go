package fuzz

import (
	"fmt"
	"math/rand"
	"sort"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// The datapath preset generates word-structured twin circuits — two
// structurally different implementations of the same arithmetic word
// function over shared, index-named operand words — whose verdicts face
// the exhaustive-simulation oracle. Each kind plants guaranteed
// cross-implementation equivalences (sum bits, mux outputs, carry chains)
// that every engine must prove, and the coarse initial partition floods
// in false candidates it must refute.

// DatapathKinds returns the datapath twin-circuit kinds in deterministic
// order.
func DatapathKinds() []string {
	kinds := []string{"add", "mux", "shift"}
	sort.Strings(kinds)
	return kinds
}

// GenerateDatapath builds a twin circuit of the given kind. The rng picks
// only the operand width, so one (seed, kind) pair always produces the
// identical network; every kind stays within sim.MaxExhaustivePIs inputs.
// Unknown kinds panic — the campaign only passes DatapathKinds entries.
func GenerateDatapath(rng *rand.Rand, kind string) *network.Network {
	switch kind {
	case "add":
		return datapathAdd(3 + rng.Intn(3)) // 2w+1 <= 11 PIs
	case "mux":
		return datapathMux(3 + rng.Intn(4)) // 2w+1 <= 13 PIs
	case "shift":
		return datapathShift(4 + rng.Intn(3)) // w+1 <= 7 PIs
	default:
		panic(fmt.Sprintf("fuzz: unknown datapath kind %q", kind))
	}
}

// Common two- and three-variable tables for the builders.
var (
	xor2 = tt.Var(2, 0).Xor(tt.Var(2, 1))
	and2 = tt.Var(2, 0).And(tt.Var(2, 1))
	or2  = tt.Var(2, 0).Or(tt.Var(2, 1))
	// andn2(s, y) = !s & y.
	andn2 = tt.Var(2, 1).AndNot(tt.Var(2, 0))
	xor3  = tt.Var(3, 0).Xor(tt.Var(3, 1)).Xor(tt.Var(3, 2))
	maj3  = tt.Var(3, 0).And(tt.Var(3, 1)).
		Or(tt.Var(3, 0).And(tt.Var(3, 2))).
		Or(tt.Var(3, 1).And(tt.Var(3, 2)))
	// mux3(s, x, y) = s ? x : y.
	mux3 = tt.Var(3, 1).And(tt.Var(3, 0)).Or(tt.Var(3, 2).AndNot(tt.Var(3, 0)))
)

// addWord adds the indexed primary inputs of one operand word, named
// "a[0]", "a[1]", ... as a netlist's bus bits are.
func addWord(net *network.Network, name string, w int) []network.NodeID {
	ids := make([]network.NodeID, w)
	for i := range ids {
		ids[i] = net.AddPI(fmt.Sprintf("%s[%d]", name, i))
	}
	return ids
}

// datapathAdd builds two ripple-carry adders over the same operands: one
// with fused full-adder cells (XOR3 sum, MAJ3 carry), one decomposed into
// propagate/generate gates. Sum bits and carry chains are pairwise
// equivalent across the implementations.
func datapathAdd(w int) *network.Network {
	net := network.New(fmt.Sprintf("dp_add_w%d", w))
	a := addWord(net, "a", w)
	b := addWord(net, "b", w)
	cin := net.AddPI("cin")

	c1 := cin
	for i := 0; i < w; i++ {
		fi := []network.NodeID{a[i], b[i], c1}
		net.AddPO(fmt.Sprintf("s1[%d]", i), net.AddLUT("", fi, xor3))
		c1 = net.AddLUT("", fi, maj3)
	}
	net.AddPO("cout1", c1)

	c2 := cin
	for i := 0; i < w; i++ {
		p := net.AddLUT("", []network.NodeID{a[i], b[i]}, xor2)
		g := net.AddLUT("", []network.NodeID{a[i], b[i]}, and2)
		net.AddPO(fmt.Sprintf("s2[%d]", i), net.AddLUT("", []network.NodeID{p, c2}, xor2))
		t := net.AddLUT("", []network.NodeID{p, c2}, and2)
		c2 = net.AddLUT("", []network.NodeID{g, t}, or2)
	}
	net.AddPO("cout2", c2)
	return net
}

// datapathMux builds two word-wide 2:1 multiplexers sel ? a : b — one as a
// single 3-LUT per bit, one decomposed into AND/ANDN/OR gates.
func datapathMux(w int) *network.Network {
	net := network.New(fmt.Sprintf("dp_mux_w%d", w))
	a := addWord(net, "a", w)
	b := addWord(net, "b", w)
	sel := net.AddPI("sel")

	for i := 0; i < w; i++ {
		net.AddPO(fmt.Sprintf("m1[%d]", i),
			net.AddLUT("", []network.NodeID{sel, a[i], b[i]}, mux3))
	}
	for i := 0; i < w; i++ {
		t := net.AddLUT("", []network.NodeID{sel, a[i]}, and2)
		u := net.AddLUT("", []network.NodeID{sel, b[i]}, andn2)
		net.AddPO(fmt.Sprintf("m2[%d]", i),
			net.AddLUT("", []network.NodeID{t, u}, or2))
	}
	return net
}

// datapathShift builds two conditional shift-left-by-one units
// out = sh ? a << 1 : a — one as a mux per bit, one decomposed. Bit 0 of
// the shifted word is zero, i.e. out[0] = !sh & a[0].
func datapathShift(w int) *network.Network {
	net := network.New(fmt.Sprintf("dp_shift_w%d", w))
	a := addWord(net, "a", w)
	sh := net.AddPI("sh")

	net.AddPO("o1[0]", net.AddLUT("", []network.NodeID{sh, a[0]}, andn2))
	for i := 1; i < w; i++ {
		net.AddPO(fmt.Sprintf("o1[%d]", i),
			net.AddLUT("", []network.NodeID{sh, a[i-1], a[i]}, mux3))
	}

	nsh := net.AddLUT("", []network.NodeID{sh}, tt.Var(1, 0).Not())
	net.AddPO("o2[0]", net.AddLUT("", []network.NodeID{nsh, a[0]}, and2))
	for i := 1; i < w; i++ {
		t := net.AddLUT("", []network.NodeID{sh, a[i-1]}, and2)
		u := net.AddLUT("", []network.NodeID{sh, a[i]}, andn2)
		net.AddPO(fmt.Sprintf("o2[%d]", i),
			net.AddLUT("", []network.NodeID{t, u}, or2))
	}
	return net
}
