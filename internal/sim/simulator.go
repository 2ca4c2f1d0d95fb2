package sim

// This file implements the arena-backed simulation kernel. A Simulator
// compiles the network once into a flat instruction program (one
// specialized kernel per node) and evaluates it into a single []uint64
// arena indexed by nodeID*nwords — no per-node allocations, buffers
// reused across calls. See DESIGN.md §3.8.

import (
	"context"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// opKind selects the evaluation kernel for one node. The dominant cover
// shapes of K-LUT networks get dedicated kernels; everything else falls
// back to the generic ISOP cube loop.
type opKind uint8

const (
	opInput   opKind = iota // primary input: words copied in by the caller
	opConst0                // constant 0
	opConst1                // constant 1
	opCopy                  // buffer: out = a
	opNot                   // inverter: out = ^a
	opAnd                   // single on-set cube: AND of (possibly negated) literals
	opNand                  // single off-set cube: ^(AND of literals)
	opXor2                  // 2-input XOR: out = a ^ b
	opXnor2                 // 2-input XNOR: out = ^(a ^ b)
	opGeneric               // OR over on-set cubes of AND of literals
)

// simLit is one literal of a compiled cube: the arena row of the fanin and
// its polarity.
type simLit struct {
	node int32
	neg  bool
}

// cubeRef is one cube of a generic instruction: a span of s.lits.
type cubeRef struct{ off, n int32 }

// instr is the compiled evaluation of one node.
type instr struct {
	op               opKind
	a, b             int32 // fanin rows for opCopy/opNot/opXor2/opXnor2
	litOff, litCnt   int32 // span of s.lits for opAnd/opNand
	cubeOff, cubeCnt int32 // span of s.cubes for opGeneric
}

// Simulator is a reusable bit-parallel evaluator over one network. It
// compiles the network's ISOP covers into a flat program once, then
// evaluates arbitrarily many input batches into a single flat arena with
// no per-node allocation.
//
// The Values returned by Simulate/SimulateContext are views into the
// arena: they stay valid (and reflect the latest call) until the next
// Simulate with a different word count or the next SimulateCone, and are
// overwritten by every subsequent call. Callers that need the data beyond
// the next call must copy it. A Simulator is not safe for concurrent use.
type Simulator struct {
	net   *network.Network
	prog  []instr
	lits  []simLit
	cubes []cubeRef

	nwords  int
	arena   []uint64
	views   Values
	full    bool  // views lay out every node (false after SimulateCone)
	scratch Words // cube accumulator for opGeneric
}

// NewSimulator compiles the network into a kernel program. The covers
// cache of the network is populated as a side effect (it is shared with
// the SAT encoder and pattern generator).
func NewSimulator(net *network.Network) *Simulator {
	s := &Simulator{net: net}
	s.compile()
	return s
}

// xorTable and xnorTable are the 2-input tables the compiler matches for
// the dedicated XOR kernels.
var (
	xorTable  = tt.Var(2, 0).Xor(tt.Var(2, 1))
	xnorTable = tt.Var(2, 0).Xor(tt.Var(2, 1)).Not()
)

// compile lowers every node to its cheapest kernel.
func (s *Simulator) compile() {
	n := s.net.NumNodes()
	s.prog = make([]instr, n)
	for id := 0; id < n; id++ {
		nid := network.NodeID(id)
		nd := s.net.Node(nid)
		switch nd.Kind {
		case network.KindPI:
			s.prog[id] = instr{op: opInput}
		case network.KindConst:
			if nd.Func.IsConst1() {
				s.prog[id] = instr{op: opConst1}
			} else {
				s.prog[id] = instr{op: opConst0}
			}
		case network.KindLUT:
			s.prog[id] = s.compileLUT(nid)
		}
	}
}

// compileLUT selects the kernel for one LUT from the shape of its covers.
func (s *Simulator) compileLUT(id network.NodeID) instr {
	nd := s.net.Node(id)
	on, off := s.net.Covers(id)
	// Degenerate LUTs (constant functions) have an empty cover on one side.
	if nd.Func.IsConst0() {
		return instr{op: opConst0}
	}
	if nd.Func.IsConst1() {
		return instr{op: opConst1}
	}
	if len(on) == 1 {
		off, n := s.appendCube(on[0], nd.Fanins)
		if n == 1 {
			l := s.lits[off]
			s.lits = s.lits[:off] // copy and not kernels read the row directly
			if l.neg {
				return instr{op: opNot, a: l.node}
			}
			return instr{op: opCopy, a: l.node}
		}
		return instr{op: opAnd, litOff: off, litCnt: n}
	}
	if len(off) == 1 {
		// Single off-set cube: the node is the complement of that cube's
		// AND — the NAND/OR family.
		o, n := s.appendCube(off[0], nd.Fanins)
		return instr{op: opNand, litOff: o, litCnt: n}
	}
	if len(nd.Fanins) == 2 && nd.Fanins[0] != nd.Fanins[1] {
		if nd.Func.Equal(xorTable) {
			return instr{op: opXor2, a: int32(nd.Fanins[0]), b: int32(nd.Fanins[1])}
		}
		if nd.Func.Equal(xnorTable) {
			return instr{op: opXnor2, a: int32(nd.Fanins[0]), b: int32(nd.Fanins[1])}
		}
	}
	// Generic fallback: the full cube loop over the on-set cover.
	in := instr{op: opGeneric, cubeOff: int32(len(s.cubes))}
	for _, cube := range on {
		o, n := s.appendCube(cube, nd.Fanins)
		s.cubes = append(s.cubes, cubeRef{off: o, n: n})
	}
	in.cubeCnt = int32(len(s.cubes)) - in.cubeOff
	return in
}

// appendCube appends one cube's cared variables to s.lits as arena rows
// with polarity and returns the span it occupies.
func (s *Simulator) appendCube(cube tt.Cube, fanins []network.NodeID) (off, n int32) {
	off = int32(len(s.lits))
	for i, f := range fanins {
		if v, cared := cube.Has(i); cared {
			s.lits = append(s.lits, simLit{node: int32(f), neg: !v})
		}
	}
	return off, int32(len(s.lits)) - off
}

// reserve sizes the arena for rows rows of nwords words, and the scratch
// buffer for nwords. Views are left for the caller to lay out.
func (s *Simulator) reserve(rows, nwords int) {
	if nwords <= 0 {
		panic("sim: word count must be positive")
	}
	s.nwords = nwords
	if need := rows * nwords; cap(s.arena) < need {
		s.arena = make([]uint64, need)
	} else {
		s.arena = s.arena[:need]
	}
	if s.views == nil {
		s.views = make(Values, len(s.prog))
	}
	if cap(s.scratch) < nwords {
		s.scratch = make(Words, nwords)
	}
	s.scratch = s.scratch[:nwords]
}

// ensure lays every node's view out over the arena for nwords; a no-op
// when the last layout already was that one.
func (s *Simulator) ensure(nwords int) {
	if s.full && s.nwords == nwords {
		return
	}
	s.reserve(len(s.prog), nwords)
	for i := range s.views {
		s.views[i] = Words(s.arena[i*nwords : (i+1)*nwords : (i+1)*nwords])
	}
	s.full = true
}

// row returns the arena row of a node.
func (s *Simulator) row(id int32) Words { return s.views[id] }

// NumWords returns the word count of the most recent simulation.
func (s *Simulator) NumWords() int { return s.nwords }

// Simulate evaluates the network on the given primary-input words,
// reusing the arena. inputs[i] must hold nwords entries for the i-th PI.
func (s *Simulator) Simulate(inputs []Words, nwords int) Values {
	v, _ := s.SimulateContext(context.Background(), inputs, nwords)
	return v
}

// SimulateContext is Simulate under a context: it polls for cancellation
// every few thousand nodes and returns (nil, false) when the context ends
// first. The arena contents are unspecified after a cancelled run.
func (s *Simulator) SimulateContext(ctx context.Context, inputs []Words, nwords int) (Values, bool) {
	if len(inputs) != s.net.NumPIs() {
		panic("sim: input count does not match PI count")
	}
	s.ensure(nwords)
	for i, pi := range s.net.PIs() {
		if len(inputs[i]) != nwords {
			panic("sim: input word count mismatch")
		}
		copy(s.views[pi], inputs[i])
	}
	cancellable := ctx != nil && ctx.Done() != nil
	for id := range s.prog {
		if cancellable && id%cancelCheckEvery == 0 && ctx.Err() != nil {
			return nil, false
		}
		if in := &s.prog[id]; in.op != opInput {
			s.evalInto(in, s.views[id])
		}
	}
	return s.views, true
}

// SimulateCone evaluates only the nodes walked into c, in c.Nodes order
// (the DFS post-order of network.Cone, so fanins come first), into a
// cone-sized arena. fill writes the nwords words of each primary input in
// the cone, called once per PI in that order. The returned Values are
// indexed by node id, but only rows of cone nodes are valid; they stay
// valid until the next call of any Simulate method. A later Simulate lays
// the full arena out again.
func (s *Simulator) SimulateCone(c *network.Cone, nwords int, fill func(pi network.NodeID, dst Words)) Values {
	s.reserve(len(c.Nodes), nwords)
	s.full = false
	for i, id := range c.Nodes {
		s.views[id] = Words(s.arena[i*nwords : (i+1)*nwords : (i+1)*nwords])
	}
	for _, id := range c.Nodes {
		if in := &s.prog[id]; in.op == opInput {
			fill(id, s.views[id])
		} else {
			s.evalInto(in, s.views[id])
		}
	}
	return s.views
}

// SimulateConeExhaustive is SimulateCone over every assignment of the
// cone's k primary inputs: the j-th PI in c.Nodes order drives variable j
// of the ExhaustiveWord layout, over 1 << max(0, k-6) words. Lanes past
// 2^k (k < 6) repeat assignments modulo 2^k. The caller bounds k.
func (s *Simulator) SimulateConeExhaustive(c *network.Cone) Values {
	k := 0
	for _, id := range c.Nodes {
		if s.prog[id].op == opInput {
			k++
		}
	}
	j := 0
	return s.SimulateCone(c, 1<<max(0, k-6), func(_ network.NodeID, dst Words) {
		for w := range dst {
			dst[w] = ExhaustiveWord(j, w)
		}
		j++
	})
}

// evalInto runs one node's kernel (any op but opInput), writing the result
// into dst, the node's arena row.
func (s *Simulator) evalInto(in *instr, dst Words) {
	switch in.op {
	case opConst0:
		clearWords(dst)
	case opConst1:
		fillWords(dst)
	case opCopy:
		copy(dst, s.row(in.a))
	case opNot:
		src := s.row(in.a)
		for w := range dst {
			dst[w] = ^src[w]
		}
	case opXor2:
		a, b := s.row(in.a), s.row(in.b)
		for w := range dst {
			dst[w] = a[w] ^ b[w]
		}
	case opXnor2:
		a, b := s.row(in.a), s.row(in.b)
		for w := range dst {
			dst[w] = ^(a[w] ^ b[w])
		}
	case opAnd:
		s.andLits(in, dst)
	case opNand:
		s.andLits(in, dst)
		for w := range dst {
			dst[w] = ^dst[w]
		}
	case opGeneric:
		clearWords(dst)
		scratch := s.scratch
		for _, c := range s.cubes[in.cubeOff : in.cubeOff+in.cubeCnt] {
			fillWords(scratch)
			for _, l := range s.lits[c.off : c.off+c.n] {
				fw := s.row(l.node)
				if l.neg {
					for w := range scratch {
						scratch[w] &^= fw[w]
					}
				} else {
					for w := range scratch {
						scratch[w] &= fw[w]
					}
				}
			}
			for w := range dst {
				dst[w] |= scratch[w]
			}
		}
	}
}

// andLits ANDs a literal span into dst.
func (s *Simulator) andLits(in *instr, dst Words) {
	lits := s.lits[in.litOff : in.litOff+in.litCnt]
	first := s.row(lits[0].node)
	if lits[0].neg {
		for w := range dst {
			dst[w] = ^first[w]
		}
	} else {
		copy(dst, first)
	}
	for _, l := range lits[1:] {
		fw := s.row(l.node)
		if l.neg {
			for w := range dst {
				dst[w] &^= fw[w]
			}
		} else {
			for w := range dst {
				dst[w] &= fw[w]
			}
		}
	}
}

func clearWords(w Words) {
	for i := range w {
		w[i] = 0
	}
}

func fillWords(w Words) {
	for i := range w {
		w[i] = ^uint64(0)
	}
}
