// Package cnf encodes LUT networks into CNF for the SAT solver (Tseitin
// transformation). Each network node receives one solver variable; a LUT's
// consistency is expressed with one clause per cube of its on-set and
// off-set ISOP covers, which is complete because the two covers partition
// the input space.
package cnf

import (
	"simgen/internal/network"
	"simgen/internal/sat"
)

// Encoder incrementally encodes fanin cones of a network into a solver.
type Encoder struct {
	Solver *sat.Solver
	net    *network.Network
	varOf  map[network.NodeID]int

	// encoded holds the nodes whose clauses are emitted. It is closed
	// under fanins, unlike varOf (Var may allocate ahead of EncodeCone),
	// so it is the walk's stop set.
	encoded map[network.NodeID]bool
	cone    *network.Cone
}

// NewEncoder returns an encoder for net writing into solver.
func NewEncoder(net *network.Network, solver *sat.Solver) *Encoder {
	return &Encoder{
		Solver:  solver,
		net:     net,
		varOf:   make(map[network.NodeID]int),
		encoded: make(map[network.NodeID]bool),
		cone:    network.NewCone(net),
	}
}

// Var returns the solver variable of a node, allocating it on first use.
// The caller must ensure the node's defining clauses are emitted via
// EncodeCone before solving.
func (e *Encoder) Var(id network.NodeID) int {
	if v, ok := e.varOf[id]; ok {
		return v
	}
	v := e.Solver.NewVar()
	e.varOf[id] = v
	return v
}

// Lit returns a solver literal for the node's output.
func (e *Encoder) Lit(id network.NodeID, neg bool) sat.Lit {
	return sat.MkLit(e.Var(id), neg)
}

// Encoded reports whether the node's cone has already been encoded.
func (e *Encoder) Encoded(id network.NodeID) bool { return e.encoded[id] }

// EncodeCone emits Tseitin clauses for every node in root's fanin cone that
// has not been encoded yet, in the cone's DFS post-order. It returns false
// when the solver became trivially unsatisfiable (cannot happen for
// well-formed networks).
func (e *Encoder) EncodeCone(root network.NodeID) bool {
	e.cone.Reset()
	e.cone.Add(root, e.Encoded)
	for _, id := range e.cone.Nodes {
		if !e.encodeNode(id) {
			return false
		}
	}
	return true
}

func (e *Encoder) encodeNode(id network.NodeID) bool {
	e.encoded[id] = true
	nd := e.net.Node(id)
	y := e.Var(id)
	switch nd.Kind {
	case network.KindPI:
		return true // free variable
	case network.KindConst:
		return e.Solver.AddClause(sat.MkLit(y, !nd.Func.IsConst1()))
	}
	on, off := e.net.Covers(id)
	// cube -> y  becomes  (!cube | y)
	for _, cube := range on {
		lits := []sat.Lit{sat.MkLit(y, false)}
		for i, f := range nd.Fanins {
			v, cared := cube.Has(i)
			if !cared {
				continue
			}
			lits = append(lits, sat.MkLit(e.Var(f), v))
		}
		if !e.Solver.AddClause(lits...) {
			return false
		}
	}
	// cube -> !y
	for _, cube := range off {
		lits := []sat.Lit{sat.MkLit(y, true)}
		for i, f := range nd.Fanins {
			v, cared := cube.Has(i)
			if !cared {
				continue
			}
			lits = append(lits, sat.MkLit(e.Var(f), v))
		}
		if !e.Solver.AddClause(lits...) {
			return false
		}
	}
	return true
}

// AssertDiffer adds clauses forcing the outputs of nodes a and b to differ:
// (a | b) & (!a | !b). This is the miter constraint used to disprove a
// candidate equivalence; UNSAT means the nodes are equivalent.
func (e *Encoder) AssertDiffer(a, b network.NodeID) bool {
	la, lb := e.Lit(a, false), e.Lit(b, false)
	if !e.Solver.AddClause(la, lb) {
		return false
	}
	return e.Solver.AddClause(la.Not(), lb.Not())
}

// Miter encodes both fanin cones and returns the positive literal of a
// fresh XOR output: assuming it asks the solver whether the nodes can
// differ (UNSAT proves equivalence). The literal is meant to be assumed,
// never asserted, so later calls stay unconstrained.
func (e *Encoder) Miter(a, b network.NodeID) sat.Lit {
	e.EncodeCone(a)
	e.EncodeCone(b)
	return e.XorLit(e.Lit(a, false), e.Lit(b, false))
}

// LearnEqual asserts that two nodes are equal, encoding their cones if
// needed. Used to teach the solver equivalences proven elsewhere so later
// miters over the merged cones become trivial.
func (e *Encoder) LearnEqual(a, b network.NodeID) {
	e.EncodeCone(a)
	e.EncodeCone(b)
	e.Solver.AddClause(e.Lit(a, true), e.Lit(b, false))
	e.Solver.AddClause(e.Lit(a, false), e.Lit(b, true))
}

// XorLit introduces a fresh variable x with x <-> (a XOR b) and returns its
// positive literal; used to build multi-output miters.
func (e *Encoder) XorLit(a, b sat.Lit) sat.Lit {
	x := sat.MkLit(e.Solver.NewVar(), false)
	e.Solver.AddClause(x.Not(), a, b)
	e.Solver.AddClause(x.Not(), a.Not(), b.Not())
	e.Solver.AddClause(x, a.Not(), b)
	e.Solver.AddClause(x, a, b.Not())
	return x
}

// Model extracts the primary-input assignment from a satisfying model,
// indexed by PI position; PIs outside the encoded cones default to false.
func (e *Encoder) Model() []bool {
	assign := make([]bool, e.net.NumPIs())
	for i, pi := range e.net.PIs() {
		if v, ok := e.varOf[pi]; ok {
			assign[i] = e.Solver.Value(v)
		}
	}
	return assign
}
