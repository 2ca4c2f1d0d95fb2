package genbench

import (
	"simgen/internal/aig"
)

// The datapath family: redundant word-level implementations (ripple vs
// carry-select adders, array vs radix-4 shift-add multipliers, barrel vs
// decoded shifters, mux-tree vs one-hot ALUs) whose bit-level miters are
// where SAT sweeping is hardest: a wide output miter collapses only when
// the equalities below it were learned first (FORWORD, arXiv:2507.02008;
// Datapath-CEC, arXiv:2501.14740). These
// circuits live in their own registry so the paper-table suites (VTR,
// EPFL, ITC'99) and the experiments that iterate them stay untouched.

var datapathRegistry []Benchmark

func registerDatapath(name string, build func() *aig.Graph) {
	datapathRegistry = append(datapathRegistry, Benchmark{Name: name, Suite: "DATAPATH", Build: build})
}

// Datapath returns the datapath benchmark family in registration order.
func Datapath() []Benchmark {
	return append([]Benchmark(nil), datapathRegistry...)
}

// DatapathByName looks a datapath benchmark up.
func DatapathByName(name string) (Benchmark, bool) {
	for _, b := range datapathRegistry {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// carrySelectAdder is a block carry-select formulation: each block computes
// both carry-in hypotheses with ripple adders and a mux picks the real one.
// Functionally g.Add, structurally very different (no shared carry chain).
func carrySelectAdder(g *aig.Graph, a, b aig.Word, cin aig.Lit, block int) (aig.Word, aig.Lit) {
	if len(a) != len(b) {
		panic("genbench: carrySelectAdder width mismatch")
	}
	out := make(aig.Word, 0, len(a))
	c := cin
	for lo := 0; lo < len(a); lo += block {
		hi := lo + block
		if hi > len(a) {
			hi = len(a)
		}
		s0, c0 := g.Add(a[lo:hi], b[lo:hi], aig.False)
		s1, c1 := g.Add(a[lo:hi], b[lo:hi], aig.True)
		out = append(out, g.MuxWord(c, s1, s0)...)
		c = g.Mux(c, c1, c0)
	}
	return out, c
}

// mulRadix4 is a shift-add multiplier recoded over 2-bit digits of b:
// each step adds one of {0, A, 2A, 3A} (3A precomputed once), halving the
// accumulation depth relative to the array form — the Booth-style recoded
// structure of hardware multipliers.
func mulRadix4(g *aig.Graph, a, b aig.Word) aig.Word {
	width := len(a) + len(b)
	ax := append(append(aig.Word{}, a...), aig.ConstWord(width-len(a), 0)...)
	a2 := aig.ShiftLeftConst(ax, 1)
	a3, _ := g.Add(ax, a2, aig.False)
	zero := aig.ConstWord(width, 0)
	acc := zero
	for i := 0; i < len(b); i += 2 {
		lo := b[i]
		hi := aig.False
		if i+1 < len(b) {
			hi = b[i+1]
		}
		pp := g.MuxWord(hi, g.MuxWord(lo, a3, a2), g.MuxWord(lo, ax, zero))
		acc, _ = g.Add(acc, aig.ShiftLeftConst(pp, i), aig.False)
	}
	return acc
}

// decodedShift is the naive one-hot shifter: decode the shift amount and OR
// together the masked constant shifts. Functionally the barrel shifter for
// amounts below 1<<len(sh).
func decodedShift(g *aig.Graph, a, sh aig.Word, left bool) aig.Word {
	res := aig.ConstWord(len(a), 0)
	for k := 0; k < 1<<uint(len(sh)); k++ {
		isK := g.EqualWord(sh, aig.ConstWord(len(sh), uint64(k)))
		var shifted aig.Word
		if left {
			shifted = aig.ShiftLeftConst(a, k)
		} else {
			shifted = aig.ShiftRightConst(a, k)
		}
		masked := make(aig.Word, len(a))
		for i := range masked {
			masked[i] = g.And(shifted[i], isK)
		}
		res = g.OrWord(res, masked)
	}
	return res
}

// aluOneHot recomputes aluCore's opcode map (000 add, 001 sub, 010 and,
// 011 or, 100 xor, 101 shl, 110 lt, 111 eq) through full opcode decode and
// a one-hot OR merge instead of the mux tree.
func aluOneHot(g *aig.Graph, a, b aig.Word, op []aig.Lit) aig.Word {
	sum, _ := g.Add(a, b, aig.False)
	diff, _ := g.Sub(a, b)
	flagWord := func(f aig.Lit) aig.Word {
		w := aig.ConstWord(len(a), 0)
		w[0] = f
		return w
	}
	results := []aig.Word{
		sum, diff, g.AndWord(a, b), g.OrWord(a, b), g.XorWord(a, b),
		aig.ShiftLeftConst(a, 1), flagWord(g.LessThan(a, b)), flagWord(g.EqualWord(a, b)),
	}
	res := aig.ConstWord(len(a), 0)
	for k, r := range results {
		dec := aig.True
		for j, o := range op {
			dec = g.And(dec, o.NotIf(k&(1<<uint(j)) == 0))
		}
		masked := make(aig.Word, len(a))
		for i := range masked {
			masked[i] = g.And(r[i], dec)
		}
		res = g.OrWord(res, masked)
	}
	return res
}

// rippleLessThan compares MSB-first with an explicit equal-above chain —
// the comparator-tree formulation, vs LessThan's subtract-and-borrow.
func rippleLessThan(g *aig.Graph, a, b aig.Word) aig.Lit {
	lt := aig.False
	eqAbove := aig.True
	for i := len(a) - 1; i >= 0; i-- {
		lt = g.Or(lt, g.And(eqAbove, g.And(a[i].Not(), b[i])))
		eqAbove = g.And(eqAbove, g.Xnor(a[i], b[i]))
	}
	return lt
}

// Twin builders. Each benchmark carries two structurally different
// implementations of the same word function as separate PO words, so
// sweeping (or CEC of the split halves) must prove the cross-implementation
// equivalences.

func buildMul8x8() *aig.Graph {
	g := aig.New("mul8x8")
	a := g.NewWordPIs("a", 8)
	b := g.NewWordPIs("b", 8)
	g.AddPOWord("p", g.Mul(a, b))
	g.AddPOWord("q", mulGP(g, a, b))
	return g
}

func buildMul10x10() *aig.Graph {
	g := aig.New("mul10x10")
	a := g.NewWordPIs("a", 10)
	b := g.NewWordPIs("b", 10)
	g.AddPOWord("p", g.Mul(a, b))
	g.AddPOWord("q", mulGP(g, a, b))
	return g
}

func buildMulBooth8() *aig.Graph {
	g := aig.New("mulbooth8")
	a := g.NewWordPIs("a", 8)
	b := g.NewWordPIs("b", 8)
	g.AddPOWord("p", g.Mul(a, b))
	g.AddPOWord("q", mulRadix4(g, a, b))
	return g
}

func buildAdd16CSel() *aig.Graph {
	g := aig.New("add16csel")
	a := g.NewWordPIs("a", 16)
	b := g.NewWordPIs("b", 16)
	cin := g.AddPI("cin")
	sum, cout := g.Add(a, b, cin)
	g.AddPOWord("s", sum)
	g.AddPO("cout", cout)
	sum2, cout2 := carrySelectAdder(g, a, b, cin, 4)
	g.AddPOWord("t", sum2)
	g.AddPO("cout2", cout2)
	return g
}

func buildShift8() *aig.Graph {
	g := aig.New("bshift8")
	a := g.NewWordPIs("a", 8)
	sh := g.NewWordPIs("sh", 3)
	g.AddPOWord("l", g.ShiftLeft(a, sh))
	g.AddPOWord("m", decodedShift(g, a, sh, true))
	g.AddPOWord("r", g.ShiftRight(a, sh))
	g.AddPOWord("s", decodedShift(g, a, sh, false))
	return g
}

func buildALU8Red() *aig.Graph {
	g := aig.New("alu8red")
	a := g.NewWordPIs("a", 8)
	b := g.NewWordPIs("b", 8)
	op := []aig.Lit{g.AddPI("op0"), g.AddPI("op1"), g.AddPI("op2")}
	g.AddPOWord("r", aluCore(g, a, b, op))
	g.AddPOWord("q", aluOneHot(g, a, b, op))
	return g
}

func buildCmp16() *aig.Graph {
	g := aig.New("cmp16")
	a := g.NewWordPIs("a", 16)
	b := g.NewWordPIs("b", 16)
	g.AddPO("lt", g.LessThan(a, b))
	g.AddPO("lt2", rippleLessThan(g, a, b))
	g.AddPO("eq", g.EqualWord(a, b))
	eq2 := g.ReduceOr(g.XorWord(a, b)).Not()
	g.AddPO("eq2", eq2)
	return g
}

func init() {
	registerDatapath("mul8x8", buildMul8x8)
	registerDatapath("mul10x10", buildMul10x10)
	registerDatapath("mulbooth8", buildMulBooth8)
	registerDatapath("add16csel", buildAdd16CSel)
	registerDatapath("bshift8", buildShift8)
	registerDatapath("alu8red", buildALU8Red)
	registerDatapath("cmp16", buildCmp16)
}
