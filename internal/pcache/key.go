package pcache

import (
	"slices"

	"simgen/internal/network"
	"simgen/internal/tt"
)

// Structural keys identify a node by the shape of its fanin cone rather
// than by its id or name, so a proof recorded in one run can be found
// again in a later run — or a later edit of the same circuit — as long as
// the cone itself is unchanged. A key folds together, bottom-up:
//
//   - for a PI: its ordinal position in the network's PI list (ids and
//     names may be renumbered between runs; the PI order is the circuit's
//     external interface and is what counterexamples are expressed over),
//   - for a constant: its value,
//   - for a LUT of up to 5 inputs: the NPN-canonical form of its local
//     function (tt.NPNCanon) with the fanin keys routed through the
//     canonizing permutation and tagged with their negation bits — two
//     cones that differ only in the NPN representative chosen for an
//     internal LUT hash identically,
//   - for a wider LUT (NPNCanon is exhaustive and capped at 5 variables):
//     the raw truth table with the fanin keys in fanin order.
//
// Keys are 64-bit hashes, so distinct cones can collide; the cache
// therefore never trusts a key match alone. Every node also gets a second
// hash over the same structure under independent seeds (the check hash),
// and every hit is semantically revalidated against the current network
// before it is allowed to merge anything (see Session.Probe).

// Hash seeds separating node kinds; arbitrary odd constants. The alt*
// seeds drive the independent check hash.
const (
	seedPI    = 0x9ae16a3b2f90404f
	seedConst = 0xc2b2ae3d27d4eb4f
	seedLUT   = 0x165667b19e3779f9
	seedWide  = 0x27d4eb2f165667c5
	seedNeg   = 0x9e6d62d06f6a9a9b

	altPI    = 0xff51afd7ed558ccd
	altConst = 0xc4ceb9fe1a85ec53
	altLUT   = 0x87c37b91114253d5
	altWide  = 0x4cf5ad432745937f
	altNeg   = 0x52dce729d96d1ecb
	altPair  = 0x38495ab5e8f0db61
)

// mix64 is the SplitMix64 finalizer: a cheap full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fold absorbs one value into a running hash.
func fold(h, v uint64) uint64 {
	return mix64(h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// nodeHash is a node's primary key plus its independent check hash.
type nodeHash struct {
	key uint64
	chk uint64
}

// Keyer computes and memoizes structural keys for one network. It is not
// goroutine-safe; the Session serializes access.
type Keyer struct {
	net    *network.Network
	keys   []nodeHash
	done   []bool
	piOrd  map[network.NodeID]int
	shapes shapeMemo
}

// NewKeyer creates a keyer over net.
func NewKeyer(net *network.Network) *Keyer { return newKeyer(net, shapeMemo{}) }

// newKeyer creates a keyer over net that canonizes local functions through
// shapes, a memo other keyers may share.
func newKeyer(net *network.Network, shapes shapeMemo) *Keyer {
	k := &Keyer{
		net:    net,
		keys:   make([]nodeHash, net.NumNodes()),
		done:   make([]bool, net.NumNodes()),
		piOrd:  make(map[network.NodeID]int, net.NumPIs()),
		shapes: shapes,
	}
	for i, pi := range net.PIs() {
		k.piOrd[pi] = i
	}
	return k
}

// NodeKey returns the structural key of id's fanin cone.
func (k *Keyer) NodeKey(id network.NodeID) uint64 {
	return k.nodeHash(id).key
}

// nodeHash returns id's hashes, first keying depth first whichever of its
// fanins have no key yet. The walk stops at keyed nodes, so keying a whole
// network in topological order visits each node once.
func (k *Keyer) nodeHash(id network.NodeID) nodeHash {
	if !k.done[id] {
		for _, f := range k.net.Node(id).Fanins {
			k.nodeHash(f)
		}
		k.keys[id] = k.compute(id)
		k.done[id] = true
	}
	return k.keys[id]
}

func (k *Keyer) compute(id network.NodeID) nodeHash {
	nd := k.net.Node(id)
	switch nd.Kind {
	case network.KindPI:
		ord := uint64(k.piOrd[id])
		return nodeHash{fold(seedPI, ord), fold(altPI, ord)}
	case network.KindConst:
		v := uint64(0)
		if nd.Func.IsConst1() {
			v = 1
		}
		return nodeHash{fold(seedConst, v), fold(altConst, v)}
	}
	n := len(nd.Fanins)
	if n <= 5 && nd.Func.NumVars() == n {
		sh := k.shapes.get(nd.Func)
		h := nodeHash{fold(seedLUT, uint64(n)), fold(altLUT, uint64(n))}
		h.key, h.chk = fold(h.key, sh.canon), fold(h.chk, sh.canon)
		// Fold the fanin keys in canonical slot order: canonical position p
		// reads original input sh.perm[p], complemented when the canonizing
		// transform negates that original input. Slots the canonical table
		// is symmetric in are interchangeable — the canonizer's choice
		// between them is arbitrary — so their hashes are sorted before
		// folding.
		var sv [5]nodeHash
		for p, i := range sh.perm[:n] {
			fh := k.keys[nd.Fanins[i]]
			if sh.neg>>i&1 == 1 {
				fh.key = mix64(fh.key ^ seedNeg)
				fh.chk = mix64(fh.chk ^ altNeg)
			}
			sv[p] = fh
		}
		sh.sortSym(sv[:n])
		for _, s := range sv[:n] {
			h.key, h.chk = fold(h.key, s.key), fold(h.chk, s.chk)
		}
		if sh.outNeg {
			h.key, h.chk = fold(h.key, 1), fold(h.chk, 1)
		}
		return h
	}
	// Wide LUT: plain structural hash, no NPN invariance.
	h := nodeHash{fold(seedWide, uint64(n)), fold(altWide, uint64(n))}
	for _, w := range nd.Func.Words() {
		h.key, h.chk = fold(h.key, w), fold(h.chk, w)
	}
	for _, f := range nd.Fanins {
		fh := k.keys[f]
		h.key, h.chk = fold(h.key, fh.key), fold(h.chk, fh.chk)
	}
	return h
}

// shape is the canonical form of one local function of at most 5 inputs:
// the NPN-canonical table word, the canonizing transform and the
// swap-symmetry classes of the canonical slots. It depends on the function
// alone, so every LUT computing the same table keys through one shape.
type shape struct {
	canon  uint64   // tt.NPNCanon's table (one word: at most 32 minterms)
	perm   [5]uint8 // canonical slot p reads original input perm[p]
	neg    uint8    // original inputs the transform complements, one bit each
	outNeg bool
	cls    [5]uint8 // cls[p] is the least slot swap-symmetric with slot p
	sym    bool     // some class holds two or more slots
}

// shapeMemo maps a local function, packed as its arity above its table
// word, to its shape, so keying canonizes each distinct function once. It
// lives as long as the keyers that share it: a base and its edit share one
// in Diff, and a Session's keyer holds its own. Nothing keeps it across
// runs, so each run pays its own canonizations, as a separate process does.
type shapeMemo map[uint64]shape

// get returns f's shape, canonizing f on first sight. f has at most 5
// variables.
func (m shapeMemo) get(f tt.Table) shape {
	id := uint64(f.NumVars())<<32 | f.Words()[0]
	if s, ok := m[id]; ok {
		return s
	}
	canon, tr := tt.NPNCanon(f)
	s := shape{canon: canon.Words()[0], neg: uint8(tr.InputNeg), outNeg: tr.OutputNeg}
	for p, i := range tr.Perm {
		s.perm[p] = uint8(i)
	}
	s.symClasses(canon)
	m[id] = s
	return s
}

// symClasses fills the swap-symmetry classes of canon's slots. When the
// canonical table is invariant under swapping two positions (AND, OR,
// majority, ... — most common LUT functions), the canonizing transform's
// choice of which fanin lands in which of those slots is arbitrary, and a
// position-sensitive fold would key NPN-equivalent cones apart.
// Swap-symmetry is an equivalence (a transposition (i k) is (i j)(j k)(i
// j)), so the positions partition into classes, and comparing each class's
// least slot with every later unclassed slot finds them all.
// (Negation-coupled symmetries are not normalized — a best-effort miss
// there costs a cache miss, never soundness.)
func (s *shape) symClasses(canon tt.Table) {
	n := canon.NumVars()
	for p := range n {
		s.cls[p] = uint8(p)
	}
	perm := make([]int, n)
	for i := range n {
		if s.cls[i] != uint8(i) {
			continue
		}
		for j := i + 1; j < n; j++ {
			if s.cls[j] != uint8(j) {
				continue
			}
			for p := range perm {
				perm[p] = p
			}
			perm[i], perm[j] = j, i
			if slices.Equal(canon.Permute(perm).Words(), canon.Words()) {
				s.cls[j], s.sym = uint8(i), true
			}
		}
	}
}

// sortSym sorts the slot hashes sv within each swap-symmetry class, by key
// and then check hash.
func (s *shape) sortSym(sv []nodeHash) {
	if !s.sym {
		return
	}
	var ps [5]int
	for root := range sv {
		if s.cls[root] != uint8(root) {
			continue
		}
		// Insertion-sort the class members' hashes across their positions.
		m := 0
		for p := root; p < len(sv); p++ {
			if s.cls[p] == uint8(root) {
				ps[m] = p
				m++
			}
		}
		for a := 1; a < m; a++ {
			for b := a; b > 0; b-- {
				x, y := ps[b-1], ps[b]
				if sv[x].key < sv[y].key || (sv[x].key == sv[y].key && sv[x].chk <= sv[y].chk) {
					break
				}
				sv[x], sv[y] = sv[y], sv[x]
			}
		}
	}
}

// pairKey returns the order-independent key pair of the two cones plus the
// check hash records carry against key collisions. The check hash folds
// the two independent per-node check hashes in the same sorted order, so
// two cone pairs that collide on (ka, kb) still disagree on chk unless
// both 64-bit hash families collide at once.
func (k *Keyer) pairKey(a, b network.NodeID) (ka, kb, chk uint64) {
	ha, hb := k.nodeHash(a), k.nodeHash(b)
	if ha.key > hb.key || (ha.key == hb.key && ha.chk > hb.chk) {
		ha, hb = hb, ha
	}
	return ha.key, hb.key, fold(fold(altPair, ha.chk), hb.chk)
}
