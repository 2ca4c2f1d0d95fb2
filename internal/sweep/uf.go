package sweep

import (
	"sync"

	"simgen/internal/network"
)

// unionFind tracks proven-equivalence representatives for every engine —
// the single replacement for the chain-walking repOf maps the SAT, BDD,
// and parallel sweepers used to duplicate. Merges always direct the
// removed member at the surviving class representative (the class's
// smallest node id, stable across refinement), so roots are deterministic
// regardless of worker count.
//
// It is goroutine-safe: find compresses paths (a write) and is reachable
// concurrently both during a run and afterwards through Sweeper.Rep, so
// the structure carries its own mutex rather than leaning on the
// scheduler's partition lock.
type unionFind struct {
	mu     sync.Mutex
	parent []int32 // parent[i] < 0 means i is a root
}

func newUnionFind(n int) *unionFind {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	return &unionFind{parent: parent}
}

// find returns the root of x, fully compressing the walked path so deep
// merge chains cost amortized O(1) on later lookups instead of a walk per
// query.
func (u *unionFind) find(x network.NodeID) network.NodeID {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.findLocked(x)
}

func (u *unionFind) findLocked(x network.NodeID) network.NodeID {
	root := x
	for u.parent[root] >= 0 {
		root = network.NodeID(u.parent[root])
	}
	for x != root {
		next := network.NodeID(u.parent[x])
		u.parent[x] = int32(root)
		x = next
	}
	return root
}

// union merges m's set into rep's.
func (u *unionFind) union(rep, m network.NodeID) {
	u.mu.Lock()
	defer u.mu.Unlock()
	r := u.findLocked(rep)
	if mr := u.findLocked(m); mr != r {
		u.parent[mr] = int32(r)
	}
}
