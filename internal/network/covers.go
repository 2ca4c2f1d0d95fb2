package network

import "simgen/internal/tt"

// nodeCovers holds the ISOP on-/off-set covers of a node function. These
// are the "truth-table rows" SimGen's implication and decision procedures
// select from, and the simulator's evaluation form.
type nodeCovers struct {
	on, off tt.Cover
}

// coverKey identifies a function of at most 6 inputs by its arity and its
// single truth-table word.
type coverKey struct {
	arity int
	bits  uint64
}

// piCovers is how a PI behaves: the identity over one virtual variable.
var piCovers = &nodeCovers{
	on:  tt.Cover{tt.Cube{}.WithLiteral(0, true)},
	off: tt.Cover{tt.Cube{}.WithLiteral(0, false)},
}

// Covers returns ISOP covers of the on-set and off-set of node id's
// function. The ISOP is computed once per function: all nodes computing
// one function of at most 6 inputs share one cover, and wider functions
// get one per node. Covers are shared, so callers must treat them as
// read-only. The cache is dropped by Invalidate.
func (n *Network) Covers(id NodeID) (on, off tt.Cover) {
	if int(id) >= len(n.covers) {
		n.covers = append(n.covers, make([]*nodeCovers, len(n.nodes)-len(n.covers))...)
	}
	if c := n.covers[id]; c != nil {
		return c.on, c.off
	}
	c := piCovers
	if nd := &n.nodes[id]; nd.Kind != KindPI {
		c = n.funcCovers(nd.Func)
	}
	n.covers[id] = c
	return c.on, c.off
}

// funcCovers returns the covers of f, computing the ISOP of a function of
// at most 6 inputs only on its first request.
func (n *Network) funcCovers(f tt.Table) *nodeCovers {
	if f.NumVars() > 6 {
		on, off := tt.OnOffCovers(f)
		return &nodeCovers{on, off}
	}
	key := coverKey{f.NumVars(), f.Words()[0]}
	if c := n.coverFuncs[key]; c != nil {
		return c
	}
	on, off := tt.OnOffCovers(f)
	c := &nodeCovers{on, off}
	if n.coverFuncs == nil {
		n.coverFuncs = make(map[coverKey]*nodeCovers)
	}
	n.coverFuncs[key] = c
	return c
}
