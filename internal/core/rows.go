package core

import (
	"simgen/internal/network"
	"simgen/internal/tt"
)

// row is one truth-table row of a node with don't-cares: a cube over the
// node's fanins plus the output value the cube produces — the unit of
// propagation for implication and decision.
type row struct {
	cube tt.Cube
	out  bool
}

// memoArity is the largest arity whose implication entries are memoized.
// The K=6 mapper never exceeds it; wider functions are filled on every
// lookup.
const memoArity = 6

// rowSet holds the combined on-/off-set rows of one node function and the
// memo of the implication kernel over them. Rows depend only on the
// function, so all nodes computing one function of at most memoArity
// inputs share one rowSet.
//
// The memo is indexed by the node's ternary state: fanin position i
// contributes digit v+1 (0 unassigned, 1 for 0, 2 for 1) times 3^i, and
// the output's digit picks one of three tables of 3^k entries, each
// allocated on its first miss.
type rowSet struct {
	rows []row
	memo [3][]implEntry
}

// implEntry summarizes the rows consistent with one ternary state: mask
// holds the unassigned input positions every consistent row cares about
// with the same value, val those values.
type implEntry struct {
	mask, val uint16
	flags     uint8
}

const (
	entFilled    uint8 = 1 << iota // memo slot computed
	entConflict                    // no consistent row
	entSingle                      // exactly one consistent row
	entJustified                   // some consistent row has all cared inputs assigned
	entOutAgree                    // all consistent rows have one output value...
	entOutVal                      // ...namely 1
)

func (x implEntry) has(f uint8) bool { return x.flags&f != 0 }

// fill computes the entry for a state by scanning the rows.
func (rs *rowSet) fill(st nodeState) implEntry {
	x := implEntry{flags: entFilled | entOutAgree}
	count := 0
	for i := range rs.rows {
		r := &rs.rows[i]
		if !r.consistent(st) {
			continue
		}
		if r.cube.Mask&^st.inMask == 0 {
			x.flags |= entJustified
		}
		if count == 0 {
			x.mask, x.val = uint16(r.cube.Mask), uint16(r.cube.Val)
			if r.out {
				x.flags |= entOutVal
			}
		} else {
			if r.out != x.has(entOutVal) {
				x.flags &^= entOutAgree
			}
			x.mask &^= ^uint16(r.cube.Mask) | (x.val ^ uint16(r.cube.Val))
		}
		count++
	}
	x.mask &^= uint16(st.inMask)
	x.val &= x.mask
	switch count {
	case 0:
		return implEntry{flags: entFilled | entConflict}
	case 1:
		x.flags |= entSingle
	}
	return x
}

// rowCache lazily builds rowSets per node, shared per function.
type rowCache struct {
	net    *network.Network
	sets   []*rowSet
	byFunc map[funcKey]*rowSet
}

// funcKey identifies a function of at most memoArity inputs.
type funcKey struct {
	arity int
	bits  uint64
}

func newRowCache(net *network.Network) *rowCache {
	return &rowCache{net: net, sets: make([]*rowSet, net.NumNodes()), byFunc: make(map[funcKey]*rowSet)}
}

func (rc *rowCache) of(id network.NodeID) *rowSet {
	if rs := rc.sets[id]; rs != nil {
		return rs
	}
	return rc.build(id)
}

// build makes or finds the node's rowSet on its first request.
func (rc *rowCache) build(id network.NodeID) *rowSet {
	nd := rc.net.Node(id)
	var key funcKey
	shared := nd.Kind != network.KindPI && nd.Func.NumVars() <= memoArity
	if shared {
		key = funcKey{nd.Func.NumVars(), nd.Func.Words()[0]}
		if rs := rc.byFunc[key]; rs != nil {
			rc.sets[id] = rs
			return rs
		}
	}
	rs := &rowSet{}
	switch nd.Kind {
	case network.KindPI:
		// PIs have no rows: their value is free.
	case network.KindConst:
		rs.rows = []row{{out: nd.Func.IsConst1()}}
	default:
		on, off := rc.net.Covers(id)
		rs.rows = make([]row, 0, len(on)+len(off))
		for _, c := range on {
			rs.rows = append(rs.rows, row{cube: c, out: true})
		}
		for _, c := range off {
			rs.rows = append(rs.rows, row{cube: c, out: false})
		}
	}
	if shared {
		rc.byFunc[key] = rs
	}
	rc.sets[id] = rs
	return rs
}

// pow3[k] is the size of one output digit's table for arity k.
var pow3 = [memoArity + 1]int{1, 3, 9, 27, 81, 243, 729}

// entry returns the implication entry of the node's current state, from the
// memo at the node's ternary state index when the arity allows.
func (e *engine) entry(id network.NodeID) implEntry {
	rs := e.rows.of(id)
	k := int(e.finOff[id+1] - e.finOff[id])
	if k > memoArity {
		return rs.fill(e.stateOf(id))
	}
	idx := e.vals.state[id]
	out := e.vals.vals[id] + 1
	tab := rs.memo[out]
	if tab == nil {
		tab = make([]implEntry, pow3[k])
		rs.memo[out] = tab
	}
	if x := tab[idx]; x.has(entFilled) {
		return x
	}
	st := nodeState{out: out - 1}
	for i, d := 0, idx; i < k; i, d = i+1, d/3 {
		if d%3 != 0 {
			st.inMask |= 1 << uint(i)
			if d%3 == 2 {
				st.inVal |= 1 << uint(i)
			}
		}
	}
	tab[idx] = rs.fill(st)
	return tab[idx]
}

// nodeState captures the node's currently assigned fanin values as cube
// masks plus the output value, for row matching.
type nodeState struct {
	inMask, inVal uint32
	out           value
}

// stateOf reads the node's surrounding assignment.
func (e *engine) stateOf(id network.NodeID) nodeState {
	st := nodeState{out: e.vals.vals[id]}
	for i, f := range e.fanins(id) {
		if v, ok := e.vals.get(f); ok {
			st.inMask |= 1 << uint(i)
			if v {
				st.inVal |= 1 << uint(i)
			}
		}
	}
	return st
}

// consistent reports whether the row matches the node state: the cube does
// not contradict assigned inputs and the output polarity matches an
// assigned output.
func (r row) consistent(st nodeState) bool {
	if st.out != unassigned && boolValue(r.out) != st.out {
		return false
	}
	return r.cube.ConsistentWith(st.inMask, st.inVal)
}

// assignsNew reports whether applying the row would set at least one
// currently unassigned input.
func (r row) assignsNew(st nodeState) bool {
	return r.cube.Mask&^st.inMask != 0
}
