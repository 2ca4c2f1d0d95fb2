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

import (
	"slices"

	"simgen/internal/network"
)

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
// It also keeps each node's ternary state index current: the sum over the
// node's fanin positions i of digit v+1 (0 unassigned, 1 for 0, 2 for 1)
// times 3^i, the memo index of the implication kernel. Every set and undo
// updates the index of each fanout through its fanout refs.
type assignment struct {
	vals  []value
	state []int32
	trail []network.NodeID

	// The fanout refs of node id are fo[foOff[id]:foOff[id+1]], in
	// network.Fanouts order: node-ID order, one ref per fanin position.
	foOff []int32
	fo    []fanoutRef
}

// fanoutRef is one fanin position of a fanout node: the node and 3^position,
// or weight 0 when the node is wider than memoArity and has no index.
type fanoutRef struct {
	node   network.NodeID
	weight int32
}

// newAssignment returns an empty assignment over the network's nodes.
func newAssignment(net *network.Network) *assignment {
	n := net.NumNodes()
	a := &assignment{
		vals:  make([]value, n),
		state: make([]int32, n),
		foOff: make([]int32, n+1),
	}
	for id := range n {
		a.vals[id] = unassigned
		a.foOff[id+1] = a.foOff[id] + int32(len(net.Fanouts(network.NodeID(id))))
	}
	a.fo = make([]fanoutRef, a.foOff[n])
	next := slices.Clone(a.foOff[:n])
	for id := range n {
		fanins := net.Node(network.NodeID(id)).Fanins
		w := int32(1)
		if len(fanins) > memoArity {
			w = 0
		}
		for _, f := range fanins {
			a.fo[next[f]] = fanoutRef{network.NodeID(id), w}
			next[f]++
			w *= 3
		}
	}
	return a
}

// fanouts returns the node's fanout refs.
func (a *assignment) fanouts(id network.NodeID) []fanoutRef {
	return a.fo[a.foOff[id]:a.foOff[id+1]]
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

// shift adds digit times each fanout ref's weight to the fanout's index.
func (a *assignment) shift(id network.NodeID, digit int32) {
	for _, r := range a.fanouts(id) {
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

// reset clears the whole assignment.
func (a *assignment) reset() { a.undoTo(0) }
