// Package network implements the Boolean network of the SimGen paper: a
// directed acyclic graph whose internal nodes are K-input lookup tables
// (LUTs) with single-bit outputs, plus primary inputs and primary outputs.
//
// Nodes are identified by dense integer IDs. Construction is append-only and
// topological: every fanin of a node must have a smaller ID, so a plain
// forward scan of the node array is a topological order.
package network

import (
	"fmt"

	"simgen/internal/tt"
)

// NodeID identifies a node within a Network.
type NodeID int32

// NoNode is the invalid node ID.
const NoNode NodeID = -1

// Kind distinguishes node roles.
type Kind uint8

const (
	// KindConst is a constant node; its function is a 0-input table.
	KindConst Kind = iota
	// KindPI is a primary input.
	KindPI
	// KindLUT is an internal lookup-table node.
	KindLUT
)

func (k Kind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindPI:
		return "pi"
	case KindLUT:
		return "lut"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Node is a single vertex of the network.
type Node struct {
	Kind   Kind
	Name   string
	Fanins []NodeID
	// Func is the node function over len(Fanins) variables; variable i of
	// the table corresponds to Fanins[i]. Only meaningful for KindLUT and
	// KindConst.
	Func tt.Table
}

// PO is a primary output: a named reference to a driver node.
type PO struct {
	Name   string
	Driver NodeID
}

// Network is a LUT-mapped Boolean network.
type Network struct {
	Name  string
	nodes []Node
	pis   []NodeID
	pos   []PO

	// Derived data, invalidated by structural edits.
	fanouts    [][]NodeID
	levels     []int32
	covers     []*nodeCovers
	coverFuncs map[coverKey]*nodeCovers
	dirty      bool
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{Name: name, dirty: true}
}

// NumNodes returns the total number of nodes (PIs + constants + LUTs).
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumPIs returns the number of primary inputs.
func (n *Network) NumPIs() int { return len(n.pis) }

// NumPOs returns the number of primary outputs.
func (n *Network) NumPOs() int { return len(n.pos) }

// NumLUTs returns the number of internal LUT nodes.
func (n *Network) NumLUTs() int {
	c := 0
	for i := range n.nodes {
		if n.nodes[i].Kind == KindLUT {
			c++
		}
	}
	return c
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return &n.nodes[id] }

// PIs returns the primary input IDs (not copied; do not mutate).
func (n *Network) PIs() []NodeID { return n.pis }

// POs returns the primary outputs (not copied; do not mutate).
func (n *Network) POs() []PO { return n.pos }

// AddPI appends a primary input.
func (n *Network) AddPI(name string) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{Kind: KindPI, Name: name})
	n.pis = append(n.pis, id)
	n.dirty = true
	return id
}

// AddConst appends a constant node with the given value.
func (n *Network) AddConst(v bool) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, Node{Kind: KindConst, Func: tt.Const(0, v)})
	n.dirty = true
	return id
}

// AddLUT appends an internal node computing fn over the given fanins.
// Every fanin must already exist (smaller ID). fn must be a table over
// exactly len(fanins) variables.
func (n *Network) AddLUT(name string, fanins []NodeID, fn tt.Table) NodeID {
	if fn.NumVars() != len(fanins) {
		panic(fmt.Sprintf("network: LUT %q has %d fanins but a %d-var table", name, len(fanins), fn.NumVars()))
	}
	id := NodeID(len(n.nodes))
	for _, f := range fanins {
		if f < 0 || f >= id {
			panic(fmt.Sprintf("network: LUT %q fanin %d out of range [0,%d)", name, f, id))
		}
	}
	fi := make([]NodeID, len(fanins))
	copy(fi, fanins)
	n.nodes = append(n.nodes, Node{Kind: KindLUT, Name: name, Fanins: fi, Func: fn})
	n.dirty = true
	return id
}

// AddPO registers driver as a primary output with the given name.
func (n *Network) AddPO(name string, driver NodeID) {
	if driver < 0 || int(driver) >= len(n.nodes) {
		panic(fmt.Sprintf("network: PO %q driver %d out of range", name, driver))
	}
	n.pos = append(n.pos, PO{Name: name, Driver: driver})
	n.dirty = true
}

// update recomputes fanouts and levels.
func (n *Network) update() {
	if !n.dirty {
		return
	}
	n.fanouts = make([][]NodeID, len(n.nodes))
	n.levels = make([]int32, len(n.nodes))
	for id := range n.nodes {
		nd := &n.nodes[id]
		lvl := int32(0)
		for _, f := range nd.Fanins {
			n.fanouts[f] = append(n.fanouts[f], NodeID(id))
			if n.levels[f]+1 > lvl {
				lvl = n.levels[f] + 1
			}
		}
		n.levels[id] = lvl
	}
	n.dirty = false
}

// Invalidate marks derived data (fanouts, levels, covers) stale after an
// in-place structural edit such as ReplaceFanin.
func (n *Network) Invalidate() {
	n.dirty = true
	n.covers, n.coverFuncs = nil, nil
}

// Warm builds every lazily cached derived datum (each node's covers, the
// fanouts and the levels). The lazy builds are not goroutine-safe, so a
// network is warmed once before it is shared across goroutines, and is
// read-only from then on until the next edit.
func (n *Network) Warm() {
	for id := range n.nodes {
		n.Covers(NodeID(id))
	}
	n.update()
}

// Fanouts returns the fanout node IDs of id.
func (n *Network) Fanouts(id NodeID) []NodeID {
	n.update()
	return n.fanouts[id]
}

// Level returns the level of id: the length of the longest path from any PI.
func (n *Network) Level(id NodeID) int {
	n.update()
	return int(n.levels[id])
}

// Depth returns the maximum level over all PO drivers.
func (n *Network) Depth() int {
	n.update()
	d := int32(0)
	for _, po := range n.pos {
		if n.levels[po.Driver] > d {
			d = n.levels[po.Driver]
		}
	}
	return int(d)
}

// FaninIndex returns the position of fanin f within node id's fanin list,
// or -1 when f is not a fanin of id.
func (n *Network) FaninIndex(id, f NodeID) int {
	for i, x := range n.nodes[id].Fanins {
		if x == f {
			return i
		}
	}
	return -1
}

// ReplaceFanin rewrites every occurrence of old in node id's fanin list
// with repl. The caller must ensure repl < id to preserve the topological
// invariant. It returns the number of replaced positions.
func (n *Network) ReplaceFanin(id, old, repl NodeID) int {
	if repl >= id {
		panic("network: ReplaceFanin would break topological order")
	}
	c := 0
	for i, f := range n.nodes[id].Fanins {
		if f == old {
			n.nodes[id].Fanins[i] = repl
			c++
		}
	}
	if c > 0 {
		n.dirty = true
	}
	return c
}

// ReplacePODriver rewrites PO drivers equal to old with repl.
func (n *Network) ReplacePODriver(old, repl NodeID) int {
	c := 0
	for i := range n.pos {
		if n.pos[i].Driver == old {
			n.pos[i].Driver = repl
			c++
		}
	}
	if c > 0 {
		n.dirty = true
	}
	return c
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	m := New(n.Name)
	m.nodes = make([]Node, len(n.nodes))
	for i, nd := range n.nodes {
		cp := nd
		cp.Fanins = append([]NodeID(nil), nd.Fanins...)
		m.nodes[i] = cp
	}
	m.pis = append([]NodeID(nil), n.pis...)
	m.pos = append([]PO(nil), n.pos...)
	return m
}

// Check validates structural invariants and returns the first violation.
func (n *Network) Check() error {
	for id := range n.nodes {
		nd := &n.nodes[id]
		switch nd.Kind {
		case KindPI:
			if len(nd.Fanins) != 0 {
				return fmt.Errorf("PI node %d has fanins", id)
			}
		case KindConst:
			if len(nd.Fanins) != 0 || nd.Func.NumVars() != 0 {
				return fmt.Errorf("const node %d malformed", id)
			}
		case KindLUT:
			if len(nd.Fanins) == 0 {
				return fmt.Errorf("LUT node %d has no fanins", id)
			}
			if nd.Func.NumVars() != len(nd.Fanins) {
				return fmt.Errorf("LUT node %d: %d fanins vs %d-var table", id, len(nd.Fanins), nd.Func.NumVars())
			}
			for _, f := range nd.Fanins {
				if f < 0 || f >= NodeID(id) {
					return fmt.Errorf("LUT node %d: fanin %d violates topological order", id, f)
				}
			}
		default:
			return fmt.Errorf("node %d has unknown kind %d", id, nd.Kind)
		}
	}
	for _, po := range n.pos {
		if po.Driver < 0 || int(po.Driver) >= len(n.nodes) {
			return fmt.Errorf("PO %q driver out of range", po.Name)
		}
	}
	return nil
}

// Stats summarizes the network.
type Stats struct {
	PIs, POs, LUTs, Depth int
}

// Stats returns summary statistics.
func (n *Network) Stats() Stats {
	return Stats{PIs: n.NumPIs(), POs: n.NumPOs(), LUTs: n.NumLUTs(), Depth: n.Depth()}
}

func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d lut=%d depth=%d", s.PIs, s.POs, s.LUTs, s.Depth)
}
