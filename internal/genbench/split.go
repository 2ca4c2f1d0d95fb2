package genbench

import (
	"fmt"

	"simgen/internal/aig"
	"simgen/internal/mapper"
	"simgen/internal/network"
)

// twinSpecs builds one implementation of each datapath benchmark into a
// fresh graph: second=false is the reference implementation, second=true
// the structurally different re-implementation. Both sides emit identical
// PI and PO names, so the mapped halves are index-aligned CEC inputs.
//
// Unlike the combined twin benchmarks (which hold both implementations in
// one graph, where the AIG's structural hashing shares common subterms),
// each side here is built and technology-mapped on its own — the halves
// share no structure beyond what the two algorithms genuinely have in
// common, exactly like two independent synthesis results. That
// independence is what makes the multiplier pairs hard for bit-level
// sweeping and is what the datapath benchmarks measure.
var twinSpecs = map[string]func(g *aig.Graph, second bool){
	"mul8x8":    func(g *aig.Graph, second bool) { mulTwin(g, 8, second, mulGP) },
	"mul10x10":  func(g *aig.Graph, second bool) { mulTwin(g, 10, second, mulGP) },
	"mulbooth8": func(g *aig.Graph, second bool) { mulTwin(g, 8, second, mulRadix4) },
	"add16csel": func(g *aig.Graph, second bool) {
		a := g.NewWordPIs("a", 16)
		b := g.NewWordPIs("b", 16)
		cin := g.AddPI("cin")
		var sum aig.Word
		var cout aig.Lit
		if second {
			sum, cout = carrySelectAdder(g, a, b, cin, 4)
		} else {
			sum, cout = g.Add(a, b, cin)
		}
		g.AddPOWord("s", sum)
		g.AddPO("cout", cout)
	},
	"bshift8": func(g *aig.Graph, second bool) {
		a := g.NewWordPIs("a", 8)
		sh := g.NewWordPIs("sh", 3)
		if second {
			g.AddPOWord("l", decodedShift(g, a, sh, true))
			g.AddPOWord("r", decodedShift(g, a, sh, false))
		} else {
			g.AddPOWord("l", g.ShiftLeft(a, sh))
			g.AddPOWord("r", g.ShiftRight(a, sh))
		}
	},
	"alu8red": func(g *aig.Graph, second bool) {
		a := g.NewWordPIs("a", 8)
		b := g.NewWordPIs("b", 8)
		op := []aig.Lit{g.AddPI("op0"), g.AddPI("op1"), g.AddPI("op2")}
		if second {
			g.AddPOWord("r", aluOneHot(g, a, b, op))
		} else {
			g.AddPOWord("r", aluCore(g, a, b, op))
		}
	},
	"cmp16": func(g *aig.Graph, second bool) {
		a := g.NewWordPIs("a", 16)
		b := g.NewWordPIs("b", 16)
		if second {
			g.AddPO("lt", rippleLessThan(g, a, b))
			g.AddPO("eq", g.ReduceOr(g.XorWord(a, b)).Not())
		} else {
			g.AddPO("lt", g.LessThan(a, b))
			g.AddPO("eq", g.EqualWord(a, b))
		}
	},
}

func mulTwin(g *aig.Graph, w int, second bool, impl2 func(*aig.Graph, aig.Word, aig.Word) aig.Word) {
	a := g.NewWordPIs("a", w)
	b := g.NewWordPIs("b", w)
	if second {
		g.AddPOWord("p", impl2(g, a, b))
	} else {
		g.AddPOWord("p", g.Mul(a, b))
	}
}

// SplitTwin materializes a datapath benchmark as a CEC-ready circuit pair:
// each implementation is built into its own graph and technology-mapped
// independently. The halves are exactly what the golden datapath corpus
// stores and what `sweep -cec` proves equivalent.
func SplitTwin(name string) (a, b *network.Network, err error) {
	return SplitTwinK(name, 0)
}

// SplitTwinK is SplitTwin with an explicit LUT input bound for the
// technology mapping; k <= 0 uses the default (K=6).
func SplitTwinK(name string, k int) (a, b *network.Network, err error) {
	spec, ok := twinSpecs[name]
	if !ok {
		return nil, nil, fmt.Errorf("genbench: %q is not a datapath twin benchmark", name)
	}
	mopts := mapper.DefaultOptions()
	if k > 0 {
		mopts.K = k
	}
	build := func(second bool, suffix string) (*network.Network, error) {
		g := aig.New(name + suffix)
		spec(g, second)
		return mapper.Map(g, mopts)
	}
	if a, err = build(false, "_a"); err != nil {
		return nil, nil, err
	}
	if b, err = build(true, "_b"); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// TwinNames returns the datapath benchmarks SplitTwin supports, in
// registration order.
func TwinNames() []string {
	var names []string
	for _, bm := range datapathRegistry {
		if _, ok := twinSpecs[bm.Name]; ok {
			names = append(names, bm.Name)
		}
	}
	return names
}
