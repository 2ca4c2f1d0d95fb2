// Package core implements the SimGen simulation-pattern generator — the
// contribution of the paper — together with the two baselines it is
// evaluated against: plain reverse simulation (Zhang et al., DAC'21) and
// random simulation.
//
// SimGen receives equivalence classes of a LUT network, picks desired
// output values (OUTgold) for the members of a class, and searches for a
// primary-input vector compatible with those values by interleaving two
// ATPG-style propagation mechanisms: implication (forced assignments) and
// decision (heuristic row selection).
package core

import "simgen/internal/network"

// value is a ternary node value.
type value int8

const (
	unassigned value = -1
	val0       value = 0
	val1       value = 1
)

func boolValue(b bool) value {
	if b {
		return val1
	}
	return val0
}

// assignment is a partial assignment of node output values with a trail for
// checkpoint/undo. The trail is in assignment order, which is what the
// latestUpdated rule of Algorithm 1 reads.
//
// It also keeps each node's ternary state index current, the memo index of
// the implication kernel: for a node of arity k, the sum over its fanin
// positions i of digit v+1 (0 unassigned, 1 for 0, 2 for 1) times 3^i,
// plus its own output digit times 3^k. Every set and undo updates the
// indices that hold the node's digit through its wake list. The index is 0
// when nothing is assigned, and it stays 0 for a PI and for a node wider
// than memoArity.
type assignment struct {
	vals  []value
	state []int32
	trail []network.NodeID

	// The wake list of node id is wake[wakeOff[id]:wakeOff[id+1]]: a self
	// ref of weight 3^k unless the node is a PI, then its fanout refs in
	// network.Fanouts order (node-ID order, one ref per fanin position).
	// The engine enqueues a node's wake list when it assigns the node.
	wakeOff []int32
	wake    []wakeRef
}

// wakeRef is one node whose index holds a digit of the list's owner: the
// node and the digit's weight, 3^position for a fanin position and 3^k for
// the output, or 0 when the node is wider than memoArity and has no index.
type wakeRef struct {
	node   network.NodeID
	weight int32
}

// newAssignment returns an empty assignment over the network's nodes.
func newAssignment(net *network.Network) *assignment {
	n := net.NumNodes()
	a := &assignment{
		vals:    make([]value, n),
		state:   make([]int32, n),
		wakeOff: make([]int32, n+1),
	}
	next := make([]int32, n)
	for id := range n {
		a.vals[id] = unassigned
		next[id] = a.wakeOff[id]
		if net.Node(network.NodeID(id)).Kind != network.KindPI {
			next[id]++ // the self ref's slot
		}
		a.wakeOff[id+1] = next[id] + int32(len(net.Fanouts(network.NodeID(id))))
	}
	a.wake = make([]wakeRef, a.wakeOff[n])
	for id := range n {
		nd := net.Node(network.NodeID(id))
		w := int32(1)
		if len(nd.Fanins) > memoArity {
			w = 0
		}
		for _, f := range nd.Fanins {
			a.wake[next[f]] = wakeRef{network.NodeID(id), w}
			next[f]++
			w *= 3
		}
		if nd.Kind != network.KindPI {
			a.wake[a.wakeOff[id]] = wakeRef{network.NodeID(id), w}
		}
	}
	return a
}

// wakes returns the node's wake list.
func (a *assignment) wakes(id network.NodeID) []wakeRef {
	return a.wake[a.wakeOff[id]:a.wakeOff[id+1]]
}

// get returns the node's value and whether it is assigned.
func (a *assignment) get(id network.NodeID) (bool, bool) {
	v := a.vals[id]
	return v == val1, v != unassigned
}

// assigned reports whether the node has a value.
func (a *assignment) assigned(id network.NodeID) bool { return a.vals[id] != unassigned }

// set assigns a value, recording it on the trail. The caller must have
// checked the node is unassigned or equal.
func (a *assignment) set(id network.NodeID, v bool) {
	if a.vals[id] != unassigned {
		if a.vals[id] != boolValue(v) {
			panic("core: conflicting set; callers must check first")
		}
		return
	}
	a.vals[id] = boolValue(v)
	a.shift(id, int32(boolValue(v))+1)
	a.trail = append(a.trail, id)
}

// shift adds digit times each wake ref's weight to the ref's index.
func (a *assignment) shift(id network.NodeID, digit int32) {
	for _, r := range a.wakes(id) {
		a.state[r.node] += digit * r.weight
	}
}

// mark returns a checkpoint for undoTo.
func (a *assignment) mark() int { return len(a.trail) }

// undoTo unassigns everything set after the checkpoint.
func (a *assignment) undoTo(mark int) {
	for i := len(a.trail) - 1; i >= mark; i-- {
		id := a.trail[i]
		a.shift(id, -int32(a.vals[id]+1))
		a.vals[id] = unassigned
	}
	a.trail = a.trail[:mark]
}

// reset clears the whole assignment. Every index is 0 when nothing is
// assigned, so it clears the index array instead of undoing the trail.
func (a *assignment) reset() {
	for _, id := range a.trail {
		a.vals[id] = unassigned
	}
	clear(a.state)
	a.trail = a.trail[:0]
}
