package sweep

import (
	"sync"
	"testing"

	"simgen/internal/core"
	"simgen/internal/network"
)

// TestUnionFindDeepChainCompresses builds the worst-case 10k-deep merge
// chain (each root merged under the next node) and checks that one lookup
// flattens the entire walked path: afterwards every visited node points
// directly at the root, so repeated Rep queries cost O(1) instead of the
// quadratic chain walk the per-engine repOf maps used to pay.
func TestUnionFindDeepChainCompresses(t *testing.T) {
	const n = 10000
	u := newUnionFind(n)
	// union(i+1, i) parents root i under root i+1, growing the chain
	// 0 -> 1 -> ... -> n-1 one link per step without triggering any
	// compression along the way.
	for i := 0; i < n-1; i++ {
		u.union(network.NodeID(i+1), network.NodeID(i))
	}
	if got := u.find(0); got != n-1 {
		t.Fatalf("find(0) = %d, want %d", got, n-1)
	}
	for i := 0; i < n-1; i++ {
		if p := u.parent[i]; p != n-1 {
			t.Fatalf("node %d still points at %d after compression, want direct link to %d",
				i, p, n-1)
		}
	}
	if p := u.parent[n-1]; p >= 0 {
		t.Fatalf("root %d has parent %d, want none", n-1, p)
	}
}

// TestUnionFindFindIsIdentityWithoutMerges guards the Rep contract: a node
// nothing was merged into is its own representative.
func TestUnionFindFindIsIdentityWithoutMerges(t *testing.T) {
	u := newUnionFind(16)
	for i := network.NodeID(0); i < 16; i++ {
		if got := u.find(i); got != i {
			t.Fatalf("find(%d) = %d, want identity", i, got)
		}
	}
}

// TestUnionFindConcurrentMerges hammers one union-find from many
// goroutines merging overlapping chains — the access pattern of parallel
// sweep workers recording proven equivalences while other goroutines (and
// post-run Rep callers) run finds. Under -race this doubles as a proof
// that the structure's internal locking covers path compression's writes.
func TestUnionFindConcurrentMerges(t *testing.T) {
	const (
		n      = 1 << 10
		chains = 8 // goroutines; chain g merges {g, g+chains, g+2*chains, ...}
	)
	u := newUnionFind(n)
	var wg sync.WaitGroup
	for g := 0; g < chains; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine links its own arithmetic chain, interleaving
			// finds with the unions, then ties the chain to node 0 so every
			// class collapses into one despite the overlapping merges.
			for x := g + chains; x < n; x += chains {
				u.union(network.NodeID(g), network.NodeID(x))
				if x%(3*chains) == 0 {
					u.find(network.NodeID(x))
				}
			}
			u.union(0, network.NodeID(g))
		}(g)
	}
	wg.Wait()

	// Exactly one canonical representative must remain, and a second pass
	// over fully compressed paths must agree with the first.
	root := u.find(0)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			if got := u.find(network.NodeID(i)); got != root {
				t.Fatalf("pass %d: node %d has rep %d, want %d", pass, i, got, root)
			}
		}
	}
}

// TestSweeperRepUsesSharedUnionFind checks the scheduler end-to-end: after
// a sweep with chained merges, Rep resolves through the shared union-find
// for both the SAT and BDD instantiations.
func TestSweeperRepUsesSharedUnionFind(t *testing.T) {
	net, _, _ := buildRedundant()
	runner := core.NewRunner(net, 1, 5)
	sw := New(net, runner.Classes, Options{})
	sw.Run()
	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		root := sw.Rep(nid)
		if sw.Rep(root) != root {
			t.Fatalf("Rep(Rep(%d)) = %d, want fixed point %d", nid, sw.Rep(root), root)
		}
	}
}
