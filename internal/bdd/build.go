package bdd

import (
	"context"

	"simgen/internal/network"
)

// Builder constructs BDDs for nodes of a LUT network over the network's
// primary inputs, caching one BDD per node — the data structure behind
// BDD sweeping.
type Builder struct {
	M     *Manager
	net   *network.Network
	varOf map[network.NodeID]int
	cache map[network.NodeID]Ref
	cone  *network.Cone
}

// NewBuilder returns a builder whose manager has one variable per primary
// input, in PI order (a simple static order; good enough for the benchmark
// sizes here, and its blow-up on multipliers is exactly the classic BDD
// failure mode the harness demonstrates).
func NewBuilder(net *network.Network) *Builder {
	b := &Builder{
		M:     New(net.NumPIs()),
		net:   net,
		varOf: make(map[network.NodeID]int, net.NumPIs()),
		cache: make(map[network.NodeID]Ref),
		cone:  network.NewCone(net),
	}
	for i, pi := range net.PIs() {
		b.varOf[pi] = i
	}
	return b
}

// Node returns the BDD of the node's function over the primary inputs,
// building the uncached part of its fanin cone in DFS post-order. It
// polls ctx before each node it builds: a done context returns ctx.Err(),
// keeping the finished nodes cached.
func (b *Builder) Node(ctx context.Context, id network.NodeID) (Ref, error) {
	b.cone.Reset()
	b.cone.Add(id, b.cached)
	for _, cid := range b.cone.Nodes {
		if err := ctx.Err(); err != nil {
			return False, err
		}
		r, err := b.build(cid)
		if err != nil {
			return False, err
		}
		b.cache[cid] = r
	}
	return b.cache[id], nil
}

// cached reports whether id's BDD is built. Node builds a cone fanins
// first, so the cached set is closed under fanins: the walk's stop set.
func (b *Builder) cached(id network.NodeID) bool {
	_, ok := b.cache[id]
	return ok
}

func (b *Builder) build(id network.NodeID) (Ref, error) {
	nd := b.net.Node(id)
	switch nd.Kind {
	case network.KindPI:
		return b.M.Var(b.varOf[id])
	case network.KindConst:
		if nd.Func.IsConst1() {
			return True, nil
		}
		return False, nil
	}
	// OR over the on-set cubes, each an AND of fanin BDD literals.
	on, _ := b.net.Covers(id)
	out := False
	for _, cube := range on {
		term := True
		for i, f := range nd.Fanins {
			v, cared := cube.Has(i)
			if !cared {
				continue
			}
			fb := b.cache[f]
			var err error
			if !v {
				fb, err = b.M.Not(fb)
				if err != nil {
					return False, err
				}
			}
			term, err = b.M.And(term, fb)
			if err != nil {
				return False, err
			}
		}
		var err error
		out, err = b.M.Or(out, term)
		if err != nil {
			return False, err
		}
	}
	return out, nil
}

// Counterexample returns an input assignment on which the two nodes
// differ; ok is false when they are equivalent, by canonicity a single
// reference comparison once both BDDs are built. It stops with ctx.Err()
// when ctx ends while the BDDs are being built.
func (b *Builder) Counterexample(ctx context.Context, x, y network.NodeID) (assign []bool, ok bool, err error) {
	rx, err := b.Node(ctx, x)
	if err != nil {
		return nil, false, err
	}
	ry, err := b.Node(ctx, y)
	if err != nil {
		return nil, false, err
	}
	diff, err := b.M.Xor(rx, ry)
	if err != nil {
		return nil, false, err
	}
	assign, ok = b.M.AnySat(diff)
	return assign, ok, nil
}
