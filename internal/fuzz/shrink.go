package fuzz

import (
	"simgen/internal/network"
	"simgen/internal/tt"
)

// Property reports whether a candidate circuit still exhibits the failure
// being minimized. It must be deterministic: the shrinker calls it many
// times and keeps exactly the candidates on which it returns true.
type Property func(*network.Network) bool

// Shrink greedily minimizes a failing circuit while the property keeps
// reproducing, using four passes per round until a fixpoint:
//
//  1. drop primary outputs (and the cones only they observed),
//  2. replace a LUT with one of its fanins,
//  3. replace a LUT or PI with a constant,
//  4. drop individual fanins (cofactoring the table).
//
// Every candidate is rebuilt from scratch and garbage-collected, so sizes
// shrink monotonically. The returned network always satisfies the property
// (in the worst case it is the input itself). A candidate on which the
// property panics is rejected like one on which it passes: a fault that
// panics on a smaller network is not the failure being minimized, and it
// must not cost the reproducer already in hand.
func Shrink(net *network.Network, failing Property, maxRounds int) *network.Network {
	cur := net
	if maxRounds <= 0 {
		maxRounds = 16
	}
	for round := 0; round < maxRounds; round++ {
		next, improved := shrinkRound(cur, failing)
		if !improved {
			break
		}
		cur = next
	}
	return cur
}

// shrinkRound applies each pass once and reports whether anything shrank.
func shrinkRound(net *network.Network, failing Property) (*network.Network, bool) {
	cur, improved := net, false
	try := func(candidate *network.Network) bool {
		if candidate == nil {
			return false
		}
		if candidate.NumNodes() >= cur.NumNodes() && candidate.NumPOs() >= cur.NumPOs() {
			return false
		}
		if candidate.Check() != nil || !holds(failing, candidate) {
			return false
		}
		cur, improved = candidate, true
		return true
	}

	// Pass 1: drop POs, highest index first.
	for i := cur.NumPOs() - 1; i >= 0 && cur.NumPOs() > 1; i-- {
		if i < cur.NumPOs() {
			try(applyEdit(cur, edit{dropPO: i}))
		}
	}
	// Pass 2+3: node substitutions, deepest nodes first so whole cones die.
	for id := cur.NumNodes() - 1; id >= 0; id-- {
		if id >= cur.NumNodes() {
			id = cur.NumNodes() - 1
			continue
		}
		nid := network.NodeID(id)
		switch cur.Node(nid).Kind {
		case network.KindLUT:
			replaced := false
			for _, f := range cur.Node(nid).Fanins {
				if try(applyEdit(cur, edit{substFor: nid, substWith: f, dropPO: -1})) {
					replaced = true
					break
				}
			}
			if !replaced {
				_ = try(applyEdit(cur, edit{constFor: nid, constVal: false, dropPO: -1})) ||
					try(applyEdit(cur, edit{constFor: nid, constVal: true, dropPO: -1}))
			}
		case network.KindPI:
			if cur.NumPIs() > 1 {
				_ = try(applyEdit(cur, edit{constFor: nid, constVal: false, dropPO: -1})) ||
					try(applyEdit(cur, edit{constFor: nid, constVal: true, dropPO: -1}))
			}
		}
	}
	// Pass 4: drop single fanins of surviving LUTs. A drop that sheds the
	// dropped fanin's cone renumbers the network, and nid may then lie past
	// its end.
	for id := cur.NumNodes() - 1; id >= 0; id-- {
		if id >= cur.NumNodes() {
			id = cur.NumNodes() - 1
			continue
		}
		nid := network.NodeID(id)
		for j := 0; id < cur.NumNodes(); j++ {
			nd := cur.Node(nid)
			if nd.Kind != network.KindLUT || len(nd.Fanins) < 2 || j >= len(nd.Fanins) {
				break
			}
			try(applyEdit(cur, edit{faninDropFor: nid, faninDropIdx: j, dropPO: -1}))
		}
	}
	return cur, improved
}

// holds reports whether the property holds on candidate, and false when it
// panics there.
func holds(failing Property, candidate *network.Network) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return failing(candidate)
}

// edit is one shrinking transformation. Exactly one of the four operations
// is active: dropPO >= 0, substFor != 0, constFor != 0, or
// faninDropFor != 0 (node 0 is always a PI or constant, never a target of
// the LUT-only operations; PI constant substitution of node 0 is reached via
// constFor only when the network has other PIs, in which case a fresh
// network is rebuilt anyway).
type edit struct {
	dropPO       int
	substFor     network.NodeID // replace this node ...
	substWith    network.NodeID // ... with this (smaller-ID) node
	constFor     network.NodeID // replace this node with a constant
	constVal     bool
	faninDropFor network.NodeID // drop one fanin of this LUT ...
	faninDropIdx int            // ... at this position
}

// applyEdit rebuilds the network with the edit applied, then extracts only
// the logic still reachable from the surviving POs (unreferenced PIs are
// shed too). Returns nil when the edit does not apply.
func applyEdit(net *network.Network, e edit) *network.Network {
	tmp := network.New(net.Name)
	constID := network.NoNode
	if e.constFor != 0 {
		constID = tmp.AddConst(e.constVal)
	}
	mapping := make([]network.NodeID, net.NumNodes())
	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		nd := net.Node(nid)
		if e.constFor != 0 && nid == e.constFor {
			mapping[nid] = constID
			continue
		}
		if e.substFor != 0 && nid == e.substFor {
			mapping[nid] = mapping[e.substWith] // substWith < substFor: already mapped
			continue
		}
		switch nd.Kind {
		case network.KindPI:
			mapping[nid] = tmp.AddPI(nd.Name)
		case network.KindConst:
			mapping[nid] = tmp.AddConst(nd.Func.IsConst1())
		case network.KindLUT:
			srcFanins, fn := nd.Fanins, nd.Func
			if nid == e.faninDropFor {
				if e.faninDropIdx >= len(srcFanins) {
					return nil
				}
				trimmed := make([]network.NodeID, 0, len(srcFanins)-1)
				for i, f := range srcFanins {
					if i != e.faninDropIdx {
						trimmed = append(trimmed, f)
					}
				}
				srcFanins, fn = trimmed, removeVar(fn, e.faninDropIdx)
			}
			fanins := make([]network.NodeID, len(srcFanins))
			for i, f := range srcFanins {
				fanins[i] = mapping[f]
			}
			mapping[nid] = tmp.AddLUT(nd.Name, fanins, fn)
		}
	}
	for i, po := range net.POs() {
		if i == e.dropPO {
			continue
		}
		tmp.AddPO(po.Name, mapping[po.Driver])
	}
	return extract(tmp)
}

// extract rebuilds only the logic reachable from the POs; primary inputs
// are kept only while still referenced.
func extract(net *network.Network) *network.Network {
	needed := network.NewCone(net)
	for _, po := range net.POs() {
		needed.Add(po.Driver, nil)
	}

	dst := network.New(net.Name)
	mapping := make([]network.NodeID, net.NumNodes())
	for i := range mapping {
		mapping[i] = network.NoNode
	}
	for id := 0; id < net.NumNodes(); id++ {
		nid := network.NodeID(id)
		if !needed.Has(nid) {
			continue
		}
		nd := net.Node(nid)
		switch nd.Kind {
		case network.KindPI:
			mapping[nid] = dst.AddPI(nd.Name)
		case network.KindConst:
			mapping[nid] = dst.AddConst(nd.Func.IsConst1())
		case network.KindLUT:
			fanins := make([]network.NodeID, len(nd.Fanins))
			for i, f := range nd.Fanins {
				fanins[i] = mapping[f]
			}
			mapping[nid] = dst.AddLUT(nd.Name, fanins, nd.Func)
		}
	}
	for _, po := range net.POs() {
		dst.AddPO(po.Name, mapping[po.Driver])
	}
	return dst
}

// removeVar cofactors variable j to 0 and renumbers the remaining variables
// down into a table over one fewer variable.
func removeVar(t tt.Table, j int) tt.Table {
	k := t.NumVars()
	r := tt.New(k - 1)
	for m := 0; m < r.NumMinterms(); m++ {
		// Insert a 0 bit at position j of m.
		low := m & ((1 << uint(j)) - 1)
		high := (m >> uint(j)) << uint(j+1)
		if t.Bit(high | low) {
			r.SetBit(m, true)
		}
	}
	return r
}
