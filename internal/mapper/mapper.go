// Package mapper implements cut-based K-LUT technology mapping of an
// and-inverter graph, the equivalent of ABC's "if -K 6" command that the
// SimGen paper applies to every benchmark before sweeping.
//
// The mapper enumerates priority cuts per node (Mishchenko et al., FPGA'06):
// cuts of the two fanins are merged, pruned to the CutsPerNode best by
// (depth, area flow), and the best cut of each node needed by the cover
// becomes one LUT.
package mapper

import (
	"fmt"
	"math/bits"
	"slices"

	"simgen/internal/aig"
	"simgen/internal/network"
	"simgen/internal/tt"
)

// Options configures the mapper.
type Options struct {
	// K is the maximum LUT input count. The paper uses K=6.
	K int
	// CutsPerNode bounds the priority cut set kept per node.
	CutsPerNode int
}

// DefaultOptions mirrors the paper's "if -K 6" configuration.
func DefaultOptions() Options { return Options{K: 6, CutsPerNode: 8} }

// cut addresses one cut's leaves, sorted ascending, in a leaf buffer. Its
// signature sig has bit l%64 set for every leaf l, so a cut has at least
// as many leaves as its signature has bits, and equal leaf sets have
// equal signatures.
type cut struct {
	off, n int32
	sig    uint64
}

// cutArena holds the cuts of every node in two flat arenas: node v's kept
// cuts, best first, then its trivial cut {v}, are rec[first[v]:first[v+1]],
// and a record's leaves are leaves[off:off+n].
type cutArena struct {
	first  []int32
	rec    []cut
	leaves []uint32
}

func (a *cutArena) of(v uint32) []cut       { return a.rec[a.first[v]:a.first[v+1]] }
func (a *cutArena) leavesOf(c cut) []uint32 { return a.leaves[c.off : c.off+c.n] }
func (a *cutArena) best(v uint32) []uint32  { return a.leavesOf(a.rec[a.first[v]]) }

// add appends a cut to the node being filled in.
func (a *cutArena) add(sig uint64, leaves ...uint32) {
	a.rec = append(a.rec, cut{int32(len(a.leaves)), int32(len(leaves)), sig})
	a.leaves = append(a.leaves, leaves...)
}

// cand is a candidate cut of the node being mapped.
type cand struct {
	cut
	depth int32
	flow  float64
}

// candidates is one node's candidate cuts and their leaves, reused across
// nodes.
type candidates struct {
	set []cand
	buf []uint32
}

// add makes buf[start:], whose signature is sig, a candidate unless a
// candidate has the same leaves, and returns it, or nil for a duplicate.
// The signature only filters the exact comparison: distinct leaf sets
// that share one are both kept.
func (s *candidates) add(start int, sig uint64) *cand {
	l := s.buf[start:]
	for i := range s.set {
		if c := &s.set[i]; c.sig == sig && slices.Equal(s.buf[c.off:c.off+c.n], l) {
			s.buf = s.buf[:start]
			return nil
		}
	}
	s.set = append(s.set, cand{cut: cut{int32(start), int32(len(l)), sig}})
	return &s.set[len(s.set)-1]
}

// byPriority orders candidates by depth, then area flow, then leaf count.
func byPriority(a, b cand) int {
	switch {
	case a.depth != b.depth:
		return int(a.depth - b.depth)
	case a.flow < b.flow:
		return -1
	case a.flow > b.flow:
		return 1
	}
	return int(a.n - b.n)
}

// mergeLeaves appends the union of two sorted leaf sets to dst. When the
// union exceeds k leaves it returns dst unchanged and false.
func mergeLeaves(dst, a, b []uint32, k int) ([]uint32, bool) {
	start := len(dst)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if len(dst)-start == k {
			return dst[:start], false
		}
		switch x, y := a[i], b[j]; {
		case x < y:
			dst = append(dst, x)
			i++
		case x > y:
			dst = append(dst, y)
			j++
		default:
			dst = append(dst, x)
			i++
			j++
		}
	}
	// One side is used up; the other's rest holds no shared leaf.
	if len(dst)-start+len(a)-i+len(b)-j > k {
		return dst[:start], false
	}
	return append(append(dst, a[i:]...), b[j:]...), true
}

// Map covers the graph with K-input LUTs and returns the resulting network.
func Map(g *aig.Graph, opts Options) (*network.Network, error) {
	if opts.K < 2 || opts.K > tt.MaxVars {
		return nil, fmt.Errorf("mapper: K=%d out of range [2,%d]", opts.K, tt.MaxVars)
	}
	if opts.CutsPerNode < 1 {
		opts.CutsPerNode = 8
	}
	n := g.NumNodes()
	refs := g.Refs()

	bound := n * (opts.CutsPerNode + 1) // kept cuts plus the trivial one
	cuts := cutArena{
		first:  make([]int32, n+1),
		rec:    make([]cut, 0, bound),
		leaves: make([]uint32, 0, bound*opts.K),
	}
	arrival := make([]int32, n)  // depth of the best cut
	flowOf := make([]float64, n) // area flow of the best cut
	var cs candidates

	for node := uint32(0); node < uint32(n); node++ {
		cuts.first[node] = int32(len(cuts.rec))
		if g.IsAnd(node) {
			// Merge every pair of fanin cuts, the trivial ones included.
			f0, f1 := g.Fanins(node)
			cs.set, cs.buf = cs.set[:0], cs.buf[:0]
			for _, a := range cuts.of(f0.Node()) {
				for _, b := range cuts.of(f1.Node()) {
					sig := a.sig | b.sig
					if bits.OnesCount64(sig) > opts.K {
						continue // more than K leaves for sure
					}
					start := len(cs.buf)
					var ok bool
					if cs.buf, ok = mergeLeaves(cs.buf, cuts.leavesOf(a), cuts.leavesOf(b), opts.K); !ok {
						continue
					}
					leaves := cs.buf[start:]
					if c := cs.add(start, sig); c != nil {
						c.depth = cutDepth(arrival, leaves)
						c.flow = cutFlow(flowOf, refs, node, leaves)
					}
				}
			}
			if len(cs.set) == 0 {
				return nil, fmt.Errorf("mapper: node %d has no feasible cut", node)
			}
			slices.SortFunc(cs.set, byPriority)
			for _, c := range cs.set[:min(len(cs.set), opts.CutsPerNode)] {
				cuts.add(c.sig, cs.buf[c.off:c.off+c.n]...)
			}
			arrival[node] = cs.set[0].depth
			flowOf[node] = cs.set[0].flow
		}
		cuts.add(1<<(node%64), node)
	}
	cuts.first[n] = int32(len(cuts.rec))

	return buildCover(g, &cuts)
}

func cutDepth(arrival []int32, leaves []uint32) int32 {
	d := int32(0)
	for _, l := range leaves {
		if arrival[l] > d {
			d = arrival[l]
		}
	}
	return d + 1
}

func cutFlow(flowOf []float64, refs []int32, node uint32, leaves []uint32) float64 {
	f := 1.0
	for _, l := range leaves {
		f += flowOf[l]
	}
	r := refs[node]
	if r < 1 {
		r = 1
	}
	return f / float64(r)
}

// buildCover selects the best cut for every node required by the POs and
// constructs the LUT network.
func buildCover(g *aig.Graph, cuts *cutArena) (*network.Network, error) {
	n := g.NumNodes()
	required := make([]bool, n)
	for _, po := range g.POs() {
		nd := po.Lit.Node()
		if g.IsAnd(nd) {
			required[nd] = true
		}
	}
	// Mark leaves of chosen cuts transitively (reverse topological order).
	for node := n - 1; node > 0; node-- {
		if !required[node] || !g.IsAnd(uint32(node)) {
			continue
		}
		for _, leaf := range cuts.best(uint32(node)) {
			if g.IsAnd(leaf) {
				required[leaf] = true
			}
		}
	}

	net := network.New(g.Name)
	nodeOf := make([]network.NodeID, n)
	for i := range nodeOf {
		nodeOf[i] = network.NoNode
	}
	for i := 0; i < g.NumPIs(); i++ {
		nodeOf[g.PILit(i).Node()] = net.AddPI(g.PIName(i))
	}

	fn := coneFunc{g: g, stamp: make([]uint32, n), slot: make([]int32, n)}
	var fanins []network.NodeID // AddLUT copies them
	for node := uint32(1); node < uint32(n); node++ {
		if !required[node] || !g.IsAnd(node) {
			continue
		}
		best := cuts.best(node)
		fanins = fanins[:0]
		for _, leaf := range best {
			if nodeOf[leaf] == network.NoNode {
				return nil, fmt.Errorf("mapper: leaf %d of node %d not yet mapped", leaf, node)
			}
			fanins = append(fanins, nodeOf[leaf])
		}
		nodeOf[node] = net.AddLUT("", fanins, fn.cutFunction(node, best))
	}

	inverters := map[network.NodeID]network.NodeID{}
	invTable := tt.Var(1, 0).Not()
	for _, po := range g.POs() {
		nd := po.Lit.Node()
		var driver network.NodeID
		switch {
		case nd == 0: // constant
			v := po.Lit.IsNeg()
			driver = net.AddConst(v)
		default:
			driver = nodeOf[nd]
			if driver == network.NoNode {
				return nil, fmt.Errorf("mapper: PO %q driver unmapped", po.Name)
			}
			if po.Lit.IsNeg() {
				inv, ok := inverters[driver]
				if !ok {
					inv = net.AddLUT("", []network.NodeID{driver}, invTable)
					inverters[driver] = inv
				}
				driver = inv
			}
		}
		net.AddPO(po.Name, driver)
	}
	if err := net.Check(); err != nil {
		return nil, fmt.Errorf("mapper: produced invalid network: %v", err)
	}
	return net, nil
}

// varMasks[i] is every word of the truth table of variable i < 6.
var varMasks = [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}

// coneFunc computes cut functions over the graph. During one call, node
// v's truth table is the w words at words[slot[v]*w] when stamp[v] is the
// call's epoch.
type coneFunc struct {
	g     *aig.Graph
	stamp []uint32
	slot  []int32
	words []uint64
	w     int
	epoch uint32
}

// cutFunction computes the truth table of node over the given cut leaves.
func (f *coneFunc) cutFunction(node uint32, leaves []uint32) tt.Table {
	k := len(leaves)
	f.epoch++
	f.words = f.words[:0]
	f.w = 1
	if k > 6 {
		f.w = 1 << (k - 6)
	}
	for i, l := range leaves {
		f.stamp[l], f.slot[l] = f.epoch, int32(i)
		for w := 0; w < f.w; w++ {
			switch {
			case i < 6:
				f.words = append(f.words, varMasks[i])
			case w>>(i-6)&1 != 0:
				f.words = append(f.words, ^uint64(0))
			default:
				f.words = append(f.words, 0)
			}
		}
	}
	off := int(f.eval(node)) * f.w
	return tt.FromWords(k, f.words[off:off+f.w])
}

// eval returns the slot of node n's truth table, computing it first.
func (f *coneFunc) eval(n uint32) int32 {
	if f.stamp[n] == f.epoch {
		return f.slot[n]
	}
	switch {
	case n == 0:
		f.words = append(f.words, make([]uint64, f.w)...)
	case f.g.IsPI(n):
		// A PI inside the cone that is not a leaf cannot happen: cuts
		// always stop at PIs.
		panic(fmt.Sprintf("mapper: PI %d inside cut cone", n))
	default:
		f0, f1 := f.g.Fanins(n)
		a, b := int(f.eval(f0.Node()))*f.w, int(f.eval(f1.Node()))*f.w
		var na, nb uint64
		if f0.IsNeg() {
			na = ^uint64(0)
		}
		if f1.IsNeg() {
			nb = ^uint64(0)
		}
		for w := 0; w < f.w; w++ {
			f.words = append(f.words, (f.words[a+w]^na)&(f.words[b+w]^nb))
		}
	}
	s := int32(len(f.words)/f.w - 1)
	f.stamp[n], f.slot[n] = f.epoch, s
	return s
}
