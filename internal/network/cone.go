package network

// Cone walks fanin cones. It keeps one epoch mark per node, so Reset is
// O(1), a walk touches only the nodes it visits, and once Nodes has grown
// to the largest cone walked a walk allocates nothing. A Cone is not safe
// for concurrent use.
type Cone struct {
	net   *Network
	mark  []uint32 // mark[id] == epoch: id visited since Reset
	epoch uint32

	// Nodes holds the nodes visited since Reset in DFS post-order: each
	// root's unvisited fanin cone in turn, fanins before their fanouts.
	// It is overwritten by the next Reset.
	Nodes []NodeID
}

// NewCone returns a walker over net, reset and ready to walk.
func NewCone(net *Network) *Cone {
	c := &Cone{net: net}
	c.Reset()
	return c
}

// Reset forgets every visited node and empties Nodes. It re-sizes the
// marks when the network gained nodes since the last walk.
func (c *Cone) Reset() {
	if n := c.net.NumNodes(); len(c.mark) < n {
		c.mark = append(c.mark, make([]uint32, n-len(c.mark))...)
	}
	c.Nodes = c.Nodes[:0]
	if c.epoch++; c.epoch == 0 { // wrapped: stale marks could match
		clear(c.mark)
		c.epoch = 1
	}
}

// Add appends the part of root's fanin cone (root included) not visited
// since Reset to Nodes, in DFS post-order. stop, when non-nil, skips a
// node and its fanins; the set it reports must be closed under fanins,
// so the walk meets the remaining nodes in the order a walk without stop
// would.
func (c *Cone) Add(root NodeID, stop func(NodeID) bool) {
	if c.mark[root] == c.epoch || (stop != nil && stop(root)) {
		return
	}
	c.visit(root, stop)
}

// visit marks id and walks its unmarked, unstopped fanins. Testing a
// fanin before the call, rather than on entry, skips the call for the
// many fanins a reconvergent cone has already visited.
func (c *Cone) visit(id NodeID, stop func(NodeID) bool) {
	c.mark[id] = c.epoch
	for _, f := range c.net.nodes[id].Fanins {
		if c.mark[f] != c.epoch && (stop == nil || !stop(f)) {
			c.visit(f, stop)
		}
	}
	c.Nodes = append(c.Nodes, id)
}

// Has reports whether id was visited since Reset.
func (c *Cone) Has(id NodeID) bool {
	return int(id) < len(c.mark) && c.mark[id] == c.epoch
}

// FaninCone returns the IDs of all nodes in the fanin cone of root
// (including root itself), in DFS post-order — fanins appear before the
// nodes that use them, so the slice is topologically sorted and root is
// last. It allocates marks for the whole network; walk many cones with
// one Cone instead.
func (n *Network) FaninCone(root NodeID) []NodeID {
	c := NewCone(n)
	c.Add(root, nil)
	return c.Nodes
}

// ConePIs returns the primary inputs within the fanin cone of root.
func (n *Network) ConePIs(root NodeID) []NodeID {
	var pis []NodeID
	for _, id := range n.FaninCone(root) {
		if n.nodes[id].Kind == KindPI {
			pis = append(pis, id)
		}
	}
	return pis
}
