package sim

import (
	"sort"

	"simgen/internal/network"
)

// Classes partitions the LUT (and constant) nodes of a network into
// candidate equivalence classes: nodes whose outputs agreed on every
// simulated vector so far. Primary inputs are excluded — distinct PIs are
// free variables and never candidates for merging.
//
// Classes only ever refine: once two nodes are separated they can never
// rejoin, mirroring the monotone partition refinement of sweeping tools.
//
// A partition built from every input assignment (ExactClasses) is exact:
// its classes are the nodes' functional equivalence classes, so every
// member of a class is proved equal to the others by the simulation
// itself. Later refinement cannot split such a class, and Clone, Refine,
// RefineN, Remove and Settle keep the flag.
type Classes struct {
	net     *network.Network
	classOf []int32 // per node; -1 when not classified
	members [][]network.NodeID
	exact   bool // built from every input assignment (ExactClasses)

	// Maintained non-singleton bookkeeping: ns holds the indices of
	// classes with >= 2 members (unordered); nsPos[ci] is ci's position in
	// ns, or -1. nsSorted caches the largest-first ordering handed out by
	// NonSingleton and is rebuilt only after a mutation (nsDirty).
	ns       []int
	nsPos    []int32
	nsSorted []int
	nsDirty  bool
}

// classified reports whether a node participates in equivalence classes.
func classified(net *network.Network, id network.NodeID) bool {
	k := net.Node(id).Kind
	return k == network.KindLUT || k == network.KindConst
}

// NewClasses builds the initial partition from one round of simulation
// values: nodes with identical words share a class. The partition is never
// Exact, whatever vectors vals hold.
func NewClasses(net *network.Network, vals Values) *Classes {
	c := &Classes{
		net:     net,
		classOf: make([]int32, net.NumNodes()),
	}
	for i := range c.classOf {
		c.classOf[i] = -1
	}
	bySig := map[uint64][]network.NodeID{}
	var order []uint64
	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		if !classified(net, nid) {
			continue
		}
		sig := Signature(vals[id])
		if _, ok := bySig[sig]; !ok {
			order = append(order, sig)
		}
		bySig[sig] = append(bySig[sig], nid)
	}
	// Exact grouping (hash collisions resolved) in deterministic order.
	for _, sig := range order {
		for _, group := range exactGroups(vals, bySig[sig]) {
			ci := int32(len(c.members))
			for _, id := range group {
				c.classOf[id] = ci
			}
			c.members = append(c.members, group)
		}
	}
	c.nsPos = make([]int32, len(c.members))
	for ci := range c.members {
		c.nsPos[ci] = -1
		if len(c.members[ci]) >= 2 {
			c.nsAdd(ci)
		}
	}
	c.nsDirty = true
	return c
}

// ExactClasses simulates every assignment of net's primary inputs
// (ExhaustiveInputs) through s, a simulator compiled for net, and
// partitions the nodes by their complete truth tables; the result is
// Exact. The simulation takes 1 << max(0, n-6) words per node for n
// inputs, so the caller picks the cutoff; like ExhaustiveInputs it panics
// above MaxExhaustivePIs.
func ExactClasses(net *network.Network, s *Simulator) *Classes {
	inputs, nwords := ExhaustiveInputs(net)
	c := NewClasses(net, s.Simulate(inputs, nwords))
	c.exact = true
	return c
}

// Exact reports whether the partition was built from every input
// assignment, so that each class holds exactly the nodes of one function.
func (c *Classes) Exact() bool { return c.exact }

// exactGroups splits a hash bucket into groups with exactly equal words.
// Retained for NewClasses (buckets are tiny there) and as the reference
// implementation the bucketed Refine is benchmarked against.
func exactGroups(vals Values, bucket []network.NodeID) [][]network.NodeID {
	var groups [][]network.NodeID
outer:
	for _, id := range bucket {
		for gi, g := range groups {
			if wordsEqual(vals[g[0]], vals[id]) {
				groups[gi] = append(groups[gi], id)
				continue outer
			}
		}
		groups = append(groups, []network.NodeID{id})
	}
	return groups
}

func wordsEqual(a, b Words) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nsAdd registers ci as non-singleton.
func (c *Classes) nsAdd(ci int) {
	if c.nsPos[ci] >= 0 {
		return
	}
	c.nsPos[ci] = int32(len(c.ns))
	c.ns = append(c.ns, ci)
}

// nsRemove drops ci from the non-singleton set (swap-delete).
func (c *Classes) nsRemove(ci int) {
	p := c.nsPos[ci]
	if p < 0 {
		return
	}
	last := len(c.ns) - 1
	moved := c.ns[last]
	c.ns[p] = moved
	c.nsPos[moved] = p
	c.ns = c.ns[:last]
	c.nsPos[ci] = -1
}

// maskedEqual compares the first nw words of a and b, with the final word
// masked by tail.
func maskedEqual(a, b Words, nw int, tail uint64) bool {
	for i := 0; i < nw-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return a[nw-1]&tail == b[nw-1]&tail
}

// maskedSig hashes the first nw words of w, with the final word masked.
func maskedSig(w Words, nw int, tail uint64) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < nw-1; i++ {
		h ^= w[i]
		h *= 1099511628211
	}
	h ^= w[nw-1] & tail
	h *= 1099511628211
	return h
}

// Refine splits every class according to fresh simulation values and
// returns the number of classes that were split. Every bit of the value
// words is treated as a valid vector lane.
func (c *Classes) Refine(vals Values) int {
	return c.refine(vals, 0)
}

// RefineN is Refine restricted to the first nbits vector lanes: trailing
// bits of the final word beyond nbits are ignored. Callers that pack a
// partial batch (fewer vectors than word capacity, e.g. the sweeping
// counterexample pools or a Runner batch) use this to keep padding lanes
// from influencing the partition.
func (c *Classes) RefineN(vals Values, nbits int) int {
	if nbits <= 0 {
		return 0
	}
	return c.refine(vals, nbits)
}

// refine implements Refine/RefineN; nbits == 0 means all bits. Only
// non-singleton classes are visited (singletons cannot split), each class
// is split by signature bucketing instead of pairwise comparison, and
// unsplit classes keep their member slice untouched — handed-out Members
// snapshots are never mutated.
func (c *Classes) refine(vals Values, nbits int) int {
	if len(c.ns) == 0 {
		return 0
	}
	splits := 0
	// Snapshot: splitting appends classes and mutates the set.
	work := append([]int(nil), c.ns...)
	// Deterministic order: ns is maintained with swap-deletes, so sort.
	sort.Ints(work)
	for _, ci := range work {
		group := c.members[ci]
		if len(group) < 2 {
			continue
		}
		nw := len(vals[group[0]])
		tail := ^uint64(0)
		if nbits > 0 {
			nw = (nbits + 63) / 64
			if r := uint(nbits % 64); r != 0 {
				tail = (uint64(1) << r) - 1
			}
		}
		// Fast path: no split. The overwhelmingly common case once the
		// partition converges — zero allocations.
		leader := vals[group[0]]
		same := true
		for _, id := range group[1:] {
			if !maskedEqual(leader, vals[id], nw, tail) {
				same = false
				break
			}
		}
		if same {
			continue
		}
		splits++
		c.splitClass(ci, group, vals, nw, tail)
	}
	return splits
}

// splitClass re-buckets one class by value signature. The first subgroup
// (containing the class's first member) keeps the class index; the others
// become new classes. Fresh slices are allocated so previously handed-out
// Members snapshots stay intact.
func (c *Classes) splitClass(ci int, group []network.NodeID, vals Values, nw int, tail uint64) {
	type bucketed struct {
		members []network.NodeID
	}
	var subs []bucketed
	bySig := make(map[uint64][]int32, len(group))
	for _, id := range group {
		w := vals[id]
		sig := maskedSig(w, nw, tail)
		found := -1
		for _, si := range bySig[sig] {
			if maskedEqual(vals[subs[si].members[0]], w, nw, tail) {
				found = int(si)
				break
			}
		}
		if found < 0 {
			found = len(subs)
			subs = append(subs, bucketed{})
			bySig[sig] = append(bySig[sig], int32(found))
		}
		subs[found].members = append(subs[found].members, id)
	}
	// First subgroup keeps index ci (it contains group[0], so class
	// representatives remain stable across refinement).
	c.members[ci] = subs[0].members
	if len(subs[0].members) < 2 {
		c.nsRemove(ci)
	}
	for _, sub := range subs[1:] {
		ni := len(c.members)
		c.members = append(c.members, sub.members)
		c.nsPos = append(c.nsPos, -1)
		for _, id := range sub.members {
			c.classOf[id] = int32(ni)
		}
		if len(sub.members) >= 2 {
			c.nsAdd(ni)
		}
	}
	c.nsDirty = true
}

// NumClasses returns the number of classes (including singletons).
func (c *Classes) NumClasses() int { return len(c.members) }

// ClassOf returns the class index of a node, or -1 when unclassified.
func (c *Classes) ClassOf(id network.NodeID) int { return int(c.classOf[id]) }

// Members returns the nodes of class ci. The slice is not copied but is
// never mutated afterwards: Refine and Remove replace a class's member
// slice instead of editing it in place, so a returned slice is a stable
// snapshot of the class at call time. Callers must not modify it.
func (c *Classes) Members(ci int) []network.NodeID { return c.members[ci] }

// NonSingleton returns the indices of classes with at least two members,
// largest first. The result is cached between mutations — repeated
// queries against an unchanged partition are free. Callers must not
// modify the returned slice; it is a snapshot that stays intact across
// later mutations.
func (c *Classes) NonSingleton() []int {
	if !c.nsDirty && c.nsSorted != nil {
		return c.nsSorted
	}
	out := append([]int(nil), c.ns...)
	sort.Slice(out, func(i, j int) bool {
		a, b := len(c.members[out[i]]), len(c.members[out[j]])
		if a != b {
			return a > b
		}
		return out[i] < out[j]
	})
	c.nsSorted = out
	c.nsDirty = false
	return out
}

// Cost implements Eq. (5) of the paper: the worst-case number of SAT calls,
// sum over classes of (size - 1).
func (c *Classes) Cost() int {
	cost := 0
	for _, m := range c.members {
		cost += len(m) - 1
	}
	return cost
}

// Clone returns an independent copy of the partition.
func (c *Classes) Clone() *Classes {
	cp := &Classes{
		net:     c.net,
		classOf: append([]int32(nil), c.classOf...),
		members: make([][]network.NodeID, len(c.members)),
		exact:   c.exact,
		ns:      append([]int(nil), c.ns...),
		nsPos:   append([]int32(nil), c.nsPos...),
		nsDirty: true,
	}
	for i, m := range c.members {
		cp.members[i] = append([]network.NodeID(nil), m...)
	}
	return cp
}

// Settle drops every member of class ci but its first, the representative,
// as Remove would one at a time, and returns the dropped members. It takes
// time linear in the class size; the returned slice shares the class's
// old member slice, which stays unmodified, so earlier Members snapshots
// are unaffected. Callers must not modify it.
func (c *Classes) Settle(ci int) []network.NodeID {
	m := c.members[ci]
	if len(m) < 2 {
		return nil
	}
	for _, id := range m[1:] {
		c.classOf[id] = -1
	}
	c.members[ci] = m[:1:1]
	c.nsRemove(ci)
	c.nsDirty = true
	return m[1:]
}

// Remove drops a node from its class (after it has been merged away during
// sweeping). The class keeps its index; empty classes are tolerated. The
// class's member slice is replaced, not edited, so slices previously
// returned by Members are unaffected.
func (c *Classes) Remove(id network.NodeID) {
	ci := c.classOf[id]
	if ci < 0 {
		return
	}
	m := c.members[ci]
	if len(m) == 0 {
		c.classOf[id] = -1
		return
	}
	nm := make([]network.NodeID, 0, len(m)-1)
	for _, x := range m {
		if x != id {
			nm = append(nm, x)
		}
	}
	if len(nm) == len(m) {
		c.classOf[id] = -1
		return
	}
	c.members[ci] = nm
	if len(nm) < 2 {
		c.nsRemove(int(ci))
	}
	c.nsDirty = true
	c.classOf[id] = -1
}
