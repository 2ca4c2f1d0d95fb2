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
// The memo is indexed by the node's ternary state index (see assignment):
// one table of 3^(k+1) packed entries, allocated whole on its first miss.
type rowSet struct {
	rows []row
	memo []uint32
}

// implEntry summarizes the rows consistent with one ternary state in one
// word: flags in bits 0-7, mask in bits 8-23 and val in bits 24-39. mask
// holds the unassigned input positions every consistent row cares about
// with the same value, val those values. The entry of a node of at most
// memoArity inputs fits the low 32 bits, which the memo tables hold.
type implEntry uint64

const (
	entFilled    implEntry = 1 << iota // memo slot computed
	entConflict                        // no consistent row
	entSingle                          // exactly one consistent row
	entJustified                       // some consistent row has all cared inputs assigned
	entOutAgree                        // all consistent rows have one output value...
	entOutVal                          // ...namely 1
	entOutFree                         // they agree and the output is unassigned
)

func (x implEntry) has(f implEntry) bool { return x&f != 0 }

func (x implEntry) mask() uint32 { return uint32(x>>8) & 0xffff }

func (x implEntry) val() uint32 { return uint32(x >> 24) }

// fill computes the entry for a state by scanning the rows.
func (rs *rowSet) fill(st nodeState) implEntry {
	flags := entFilled | entOutAgree
	var mask, val uint32
	count := 0
	for i := range rs.rows {
		r := &rs.rows[i]
		if !r.consistent(st) {
			continue
		}
		if r.cube.Mask&^st.inMask == 0 {
			flags |= entJustified
		}
		if count == 0 {
			mask, val = r.cube.Mask, r.cube.Val
			if r.out {
				flags |= entOutVal
			}
		} else {
			if r.out != flags.has(entOutVal) {
				flags &^= entOutAgree
			}
			mask &^= ^r.cube.Mask | (val ^ r.cube.Val)
		}
		count++
	}
	mask &^= st.inMask
	val &= mask
	switch count {
	case 0:
		return entFilled | entConflict
	case 1:
		flags |= entSingle
	}
	if flags.has(entOutAgree) && st.out == unassigned {
		flags |= entOutFree
	}
	return flags | implEntry(mask)<<8 | implEntry(val)<<24
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

// pow3[k] is 3^k, the weight of a k-input node's output digit.
var pow3 = [memoArity + 1]int{1, 3, 9, 27, 81, 243, 729}

// entry returns the implication entry of the node's current state. A hit
// reads only the node's memo table and its state index.
func (e *engine) entry(id network.NodeID) implEntry {
	tab := e.memo[id]
	if i := uint(e.vals.state[id]); i < uint(len(tab)) {
		if x := tab[i]; x != 0 {
			return implEntry(x)
		}
	}
	return e.fillEntry(id)
}

// fillEntry is entry's miss path. It fills the entry from the rows, and
// memoizes it in the table of the node's function when the arity allows,
// pointing the node at that table on its first miss.
func (e *engine) fillEntry(id network.NodeID) implEntry {
	rs := e.rows.of(id)
	k := int(e.finOff[id+1] - e.finOff[id])
	if k > memoArity {
		return rs.fill(e.stateOf(id))
	}
	if rs.memo == nil {
		rs.memo = make([]uint32, 3*pow3[k])
	}
	e.memo[id] = rs.memo
	idx := e.vals.state[id]
	var st nodeState
	d := idx
	for i := 0; i < k; i, d = i+1, d/3 {
		if d%3 != 0 {
			st.inMask |= 1 << uint(i)
			if d%3 == 2 {
				st.inVal |= 1 << uint(i)
			}
		}
	}
	st.out = value(d) - 1
	x := rs.fill(st)
	rs.memo[idx] = uint32(x)
	return x
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
