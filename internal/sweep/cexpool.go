package sweep

import (
	"simgen/internal/network"
	"simgen/internal/sim"
)

// cexPool batches SAT/BDD counterexamples for class refinement. A raw
// counterexample carries one useful bit per 64-bit simulation word; the
// pool amplifies each one with distance-1 primary-input flips (the
// Mishchenko-style perturbation trick) until the word is full, then
// flushes every pending lane through a single batched refinement on a
// shared arena-backed simulator.
//
// Lanes the pool has not filled stay zero and are excluded from
// refinement via Classes.RefineN — the pool controls its padding
// explicitly instead of relying on packed-vector replication.
//
// The pool is not goroutine-safe; the scheduler serializes every access
// under its partition mutex.
type cexPool struct {
	net     *network.Network
	classes *sim.Classes
	sim     *sim.Simulator

	inputs []sim.Words // one single-word entry per PI
	lanes  int         // filled lanes of the current word

	// pending holds pairs whose counterexample lanes are buffered but not
	// yet refined; pendCount counts each node's membership in them so
	// callers can detect when a class membership query would observe stale
	// state.
	pending   []pair
	pendCount []int32

	rot int // rotating start PI for distance-1 flips when NumPIs > 63

	// keep retains a copy of every flushed lane (raw counterexamples and
	// their amplified flips — each one a vector that refined the
	// partition) in kept, for the verification cache's pattern recycling;
	// the scheduler consumes kept after each flush. Replaying the full
	// lane set is what lets a warm run rebuild every split the cold sweep
	// discovered before any obligation is scheduled.
	keep bool
	kept [][]bool
}

// poolLaneCap is the lane capacity of the pool: one simulation word.
const poolLaneCap = 64

// newCexPool builds a pool over the partition. simulator, when non-nil, is
// reused for the flush simulations instead of compiling a second kernel
// for the same network.
func newCexPool(net *network.Network, classes *sim.Classes, simulator *sim.Simulator) *cexPool {
	npi := net.NumPIs()
	backing := make([]uint64, npi)
	inputs := make([]sim.Words, npi)
	for i := range inputs {
		inputs[i] = sim.Words(backing[i : i+1 : i+1])
	}
	if simulator == nil {
		simulator = sim.NewSimulator(net)
	}
	return &cexPool{
		net:       net,
		classes:   classes,
		sim:       simulator,
		inputs:    inputs,
		pendCount: make([]int32, net.NumNodes()),
	}
}

// touches reports whether either node belongs to a pending (unflushed)
// pair, i.e. whether its class membership is stale.
func (p *cexPool) touches(a, b network.NodeID) bool {
	if len(p.pending) == 0 {
		return false
	}
	return p.pendCount[a] > 0 || p.pendCount[b] > 0
}

// setLane writes one vector into lane (cex with PI flip complemented;
// flip < 0 means no flip).
func (p *cexPool) setLane(lane int, cex []bool, flip int) {
	bit := uint64(1) << uint(lane)
	for i := range p.inputs {
		v := i < len(cex) && cex[i]
		if i == flip {
			v = !v
		}
		if v {
			p.inputs[i][0] |= bit
		} else {
			p.inputs[i][0] &^= bit
		}
	}
}

// add buffers one counterexample that separates pr, amplifying it with
// distance-1 PI flips until the word fills. The caller must flush when
// full() before adding another counterexample.
func (p *cexPool) add(cex []bool, pr pair) {
	p.setLane(p.lanes, cex, -1)
	p.lanes++
	npi := len(p.inputs)
	flips := 0
	for d := 0; d < npi && p.lanes < poolLaneCap; d++ {
		p.setLane(p.lanes, cex, (p.rot+d)%npi)
		p.lanes++
		flips++
	}
	// Rotate the flip window so consecutive counterexamples on wide
	// circuits (NumPIs > 63) perturb different inputs.
	if npi > 0 {
		p.rot = (p.rot + flips) % npi
	}
	p.pending = append(p.pending, pr)
	p.pendCount[pr.rep]++
	p.pendCount[pr.m]++
}

// full reports whether the pool has no room for another counterexample.
func (p *cexPool) full() bool { return p.lanes >= poolLaneCap }

// empty reports whether nothing is buffered.
func (p *cexPool) empty() bool { return p.lanes == 0 }

// flush simulates the buffered lanes once, refines the partition over
// exactly those lanes, and verifies that every pending pair ended up
// separated. Pairs a flush somehow failed to separate (a defective
// counterexample) are dropped from their class to guarantee termination
// and returned so the caller can account them as unresolved. The caller
// holds the scheduler's partition mutex.
func (p *cexPool) flush() (dropped []pair) {
	if p.lanes == 0 {
		return nil
	}
	if p.keep {
		for l := 0; l < p.lanes; l++ {
			v := make([]bool, len(p.inputs))
			for i := range p.inputs {
				v[i] = p.inputs[i][0]>>uint(l)&1 == 1
			}
			p.kept = append(p.kept, v)
		}
	}
	vals := p.sim.Simulate(p.inputs, 1)
	p.classes.RefineN(vals, p.lanes)
	p.lanes = 0
	for _, pr := range p.pending {
		cm := p.classes.ClassOf(pr.m)
		if cm >= 0 && cm == p.classes.ClassOf(pr.rep) {
			p.classes.Remove(pr.m)
			dropped = append(dropped, pr)
		}
	}
	for _, pr := range p.pending {
		p.pendCount[pr.rep]--
		p.pendCount[pr.m]--
	}
	p.pending = p.pending[:0]
	return dropped
}
