package core

import (
	"math/bits"

	"simgen/internal/network"
)

// ImplicationStrategy selects how aggressively SimGen implies values.
type ImplicationStrategy int

const (
	// ImplSimple applies Definition 2.2: a node's values are propagated
	// only when exactly one truth-table row is consistent with the current
	// assignment.
	ImplSimple ImplicationStrategy = iota
	// ImplAdvanced additionally applies Definition 4.1: when several rows
	// are consistent but agree on the output and/or on some inputs, the
	// agreed values are propagated.
	ImplAdvanced
)

func (s ImplicationStrategy) String() string {
	if s == ImplAdvanced {
		return "AI"
	}
	return "SI"
}

// engine is the shared propagation machinery of SimGen and the reverse
// simulation baseline.
type engine struct {
	rows *rowCache
	vals *assignment

	// memo[id] is the memo table of the node's function, indexed by the
	// node's state index; it is set on the node's first lookup and stays
	// nil for a node wider than memoArity.
	memo [][]uint32

	// kind and the fanin lists are flat copies of the network taken at
	// construction; the fanins of id are fin[finOff[id]:finOff[id+1]].
	// The network must not change under the engine.
	kind   []network.Kind
	finOff []int32
	fin    []network.NodeID

	queue  []network.NodeID
	queued []bool

	// cand and prios are chooseRow's scratch buffers.
	cand  []int
	prios []float64

	// implications counts row applications performed by propagate — the
	// unit of implication work reported through GenStats.
	implications int64
}

func newEngine(net *network.Network) *engine {
	n := net.NumNodes()
	e := &engine{
		rows:   newRowCache(net),
		vals:   newAssignment(net),
		memo:   make([][]uint32, n),
		queued: make([]bool, n),
		kind:   make([]network.Kind, n),
		finOff: make([]int32, n+1),
	}
	// Every fanin position has a fanout ref in some wake list, so the
	// list's length bounds the fanin count.
	e.fin = make([]network.NodeID, 0, len(e.vals.wake))
	for id := range n {
		nd := net.Node(network.NodeID(id))
		e.kind[id] = nd.Kind
		e.fin = append(e.fin, nd.Fanins...)
		e.finOff[id+1] = int32(len(e.fin))
	}
	return e
}

// fanins returns the node's fanin list.
func (e *engine) fanins(id network.NodeID) []network.NodeID {
	return e.fin[e.finOff[id]:e.finOff[id+1]]
}

func (e *engine) enqueue(id network.NodeID) {
	if !e.queued[id] {
		e.queued[id] = true
		e.queue = append(e.queue, id)
	}
}

// assignAndWake sets an unassigned node's value and schedules every node
// whose row matching could change, in one pass over the node's wake list:
// the node itself (its inputs may now be implied backward) and its fanouts
// (their input values changed). A PI has no self ref, since it has no rows.
func (e *engine) assignAndWake(id network.NodeID, v bool) {
	a := e.vals
	a.vals[id] = boolValue(v)
	a.trail = append(a.trail, id)
	digit := int32(boolValue(v)) + 1
	for _, r := range a.wakes(id) {
		a.state[r.node] += digit * r.weight
		e.enqueue(r.node)
	}
}

// propagate runs implications to fixpoint starting from the queued nodes.
// It returns false on conflict (a node whose assignment matches no row).
// Implications flow both backward (output to inputs) and forward (inputs
// to output), independently of node levels, per Definition 2.2. Only wake
// lists fill the queue, and they name no PI.
func (e *engine) propagate(strategy ImplicationStrategy) bool {
	for len(e.queue) > 0 {
		id := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.queued[id] = false

		x := e.entry(id)
		if x.has(entConflict) {
			e.clearQueue()
			return false
		}
		// A single consistent row forces its values (simple implication);
		// advanced implication (Definition 4.1) also propagates the values
		// on which several consistent rows agree. The entry's mask holds
		// only free inputs, so an entry that sets neither an input nor a
		// free output needs no assign.
		if x.has(entSingle) || strategy == ImplAdvanced {
			e.implications++
			if x.has(entOutFree) || x.mask() != 0 {
				e.assign(id, x.has(entOutFree), x.has(entOutVal), x.mask(), x.val())
			}
		}
	}
	return true
}

// assign sets the node's output to out when outKnown and the output is
// free, then, in fanin order, every free fanin position of mask to its bit
// of val. A duplicate fanin set by an earlier position is skipped.
func (e *engine) assign(id network.NodeID, outKnown, out bool, mask, val uint32) {
	if outKnown && !e.vals.assigned(id) {
		e.assignAndWake(id, out)
	}
	fanins := e.fanins(id)
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros32(mask)
		if f := fanins[i]; !e.vals.assigned(f) {
			e.assignAndWake(f, val&(1<<uint(i)) != 0)
		}
	}
}

func (e *engine) clearQueue() {
	for _, id := range e.queue {
		e.queued[id] = false
	}
	e.queue = e.queue[:0]
}

// reset clears the assignment and the queue.
func (e *engine) reset() {
	e.vals.reset()
	e.clearQueue()
}
