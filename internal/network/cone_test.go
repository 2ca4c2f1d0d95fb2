package network_test

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"simgen/internal/fuzz"
	"simgen/internal/network"
	"simgen/internal/tt"
)

// refCone is the map-backed recursive closure FaninCone was before the
// Cone walker: the reference order every walk is checked against.
func refCone(net *network.Network, root network.NodeID) []network.NodeID {
	visited := make(map[network.NodeID]bool, 64)
	var order []network.NodeID
	var dfs func(id network.NodeID)
	dfs = func(id network.NodeID) {
		if visited[id] {
			return
		}
		visited[id] = true
		for _, f := range net.Node(id).Fanins {
			dfs(f)
		}
		order = append(order, id)
	}
	dfs(root)
	return order
}

// without returns the ids not in drop, in order.
func without(ids, drop []network.NodeID) []network.NodeID {
	var out []network.NodeID
	for _, id := range ids {
		if !slices.Contains(drop, id) {
			out = append(out, id)
		}
	}
	return out
}

// fuzzNets generates n networks cycling through every fuzz shape preset.
func fuzzNets(n int) []*network.Network {
	shapes := fuzz.Shapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(7))
	nets := make([]*network.Network, n)
	for i := range nets {
		nets[i] = fuzz.Generate(rng, shapes[names[i%len(names)]])
	}
	return nets
}

// checkWalk fails unless c holds exactly want, in order, and Has agrees.
func checkWalk(t *testing.T, what string, net *network.Network, c *network.Cone, want []network.NodeID) {
	t.Helper()
	if !slices.Equal(c.Nodes, want) {
		t.Fatalf("%s: walk %v, want %v", what, c.Nodes, want)
	}
	for id := network.NodeID(0); int(id) < net.NumNodes(); id++ {
		if c.Has(id) != slices.Contains(want, id) {
			t.Fatalf("%s: Has(%d) = %v", what, id, c.Has(id))
		}
	}
}

// TestConeMatchesReference walks random roots of fuzz-generated networks
// on one reused Cone and checks every walk against the map-backed
// reference: single roots, two-root unions (the first cone, then the
// unvisited suffix of the second) and walks under a fanin-closed stop
// set (the reference order with stopped nodes dropped).
func TestConeMatchesReference(t *testing.T) {
	for i, net := range fuzzNets(60) {
		rng := rand.New(rand.NewSource(int64(i)))
		c := network.NewCone(net)
		for trial := 0; trial < 6; trial++ {
			a := network.NodeID(rng.Intn(net.NumNodes()))
			b := network.NodeID(rng.Intn(net.NumNodes()))
			s := network.NodeID(rng.Intn(net.NumNodes()))
			ra, rb, rs := refCone(net, a), refCone(net, b), refCone(net, s)

			c.Reset()
			c.Add(a, nil)
			checkWalk(t, "single", net, c, ra)
			if !slices.Equal(net.FaninCone(a), ra) {
				t.Fatalf("FaninCone(%d) differs from the reference", a)
			}

			c.Add(b, nil)
			checkWalk(t, "union", net, c, append(slices.Clone(ra), without(rb, ra)...))

			stop := func(id network.NodeID) bool { return slices.Contains(rs, id) }
			c.Reset()
			c.Add(a, stop)
			c.Add(b, stop)
			union := append(slices.Clone(ra), without(rb, ra)...)
			checkWalk(t, "stop", net, c, without(union, rs))
		}
	}
}

// TestConeNetworkGrows walks, appends nodes to the network, and walks a
// new node's cone on the same Cone: Reset must size the marks to it.
func TestConeNetworkGrows(t *testing.T) {
	net := fuzzNets(1)[0]
	c := network.NewCone(net)
	root := network.NodeID(net.NumNodes() - 1)
	c.Add(root, nil)
	checkWalk(t, "before", net, c, refCone(net, root))

	x := net.AddPI("x")
	top := net.AddLUT("top", []network.NodeID{root, x}, tt.Var(2, 0).And(tt.Var(2, 1)))
	if c.Has(top) {
		t.Fatal("Has reports a node added after the walk")
	}
	c.Reset()
	c.Add(top, nil)
	checkWalk(t, "after", net, c, refCone(net, top))
}

// TestConeEpochWrap drives the epoch counter to its wrap-around: marks
// left from an old walk must not read as visited in the new epoch.
func TestConeEpochWrap(t *testing.T) {
	net := fuzzNets(1)[0]
	a := net.POs()[0].Driver
	b := net.POs()[len(net.POs())-1].Driver
	c := network.NewCone(net) // epoch 1
	c.Add(a, nil)
	network.SetConeEpoch(c, math.MaxUint32)
	c.Reset() // wraps back to epoch 1
	checkWalk(t, "reset", net, c, nil)
	c.Add(b, nil)
	checkWalk(t, "after wrap", net, c, refCone(net, b))
}

// TestConeWalkZeroAlloc checks that a walk on a warmed Cone with a stop
// predicate bound beforehand allocates nothing.
func TestConeWalkZeroAlloc(t *testing.T) {
	net := fuzzNets(1)[0]
	root := net.POs()[0].Driver
	stop := func(id network.NodeID) bool { return net.Node(id).Kind == network.KindPI }
	c := network.NewCone(net)
	c.Add(root, stop)
	if allocs := testing.AllocsPerRun(10, func() {
		c.Reset()
		c.Add(root, stop)
	}); allocs != 0 {
		t.Fatalf("a warm walk allocates %v objects, want 0", allocs)
	}
}
