package pcache

import (
	"simgen/internal/network"
)

// Incremental re-verification: an edited circuit differs from its cached
// baseline only where structural keys changed, and a node whose fanin
// cone is untouched by the edit cannot have changed function relative to
// any other untouched node. Diff finds the changed nodes by comparing key
// multisets (ids are meaningless across runs; two structurally identical
// nodes in either network cancel), and TFOMask closes them under
// transitive fanout — only obligations touching that region need proving,
// everything else is answered from the cache.

// Diff returns the nodes of cur whose structural key does not appear in
// base with at least the same multiplicity: the edited cones plus
// everything structurally downstream of them (a fanout of a changed node
// folds the changed key and therefore changes too).
func Diff(base, cur *network.Network) []network.NodeID {
	return diff(base, cur, shapeMemo{})
}

// diff is Diff canonizing through shapes. Both keyers share it: a base and
// its edit differ in a handful of LUTs, so the edit's functions are nearly
// all canonized already.
func diff(base, cur *network.Network, shapes shapeMemo) []network.NodeID {
	bk, ck := newKeyer(base, shapes), newKeyer(cur, shapes)
	counts := make(map[uint64]int, base.NumNodes())
	for id := 0; id < base.NumNodes(); id++ {
		nid := network.NodeID(id)
		if kind := base.Node(nid).Kind; kind == network.KindLUT || kind == network.KindConst {
			counts[bk.NodeKey(nid)]++
		}
	}
	var changed []network.NodeID
	for id := 0; id < cur.NumNodes(); id++ {
		nid := network.NodeID(id)
		if kind := cur.Node(nid).Kind; kind != network.KindLUT && kind != network.KindConst {
			continue
		}
		k := ck.NodeKey(nid)
		if counts[k] > 0 {
			counts[k]--
			continue
		}
		changed = append(changed, nid)
	}
	return changed
}

// TFOMask marks every node in the transitive fanout of the changed set,
// the changed nodes included. Obligations with both endpoints outside the
// mask are settled (or skipped) from the cache by the scheduler's
// incremental pre-pass and never scheduled.
func TFOMask(net *network.Network, changed []network.NodeID) []bool {
	mask := make([]bool, net.NumNodes())
	queue := make([]network.NodeID, 0, len(changed))
	for _, id := range changed {
		if int(id) < len(mask) && !mask[id] {
			mask[id] = true
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, fo := range net.Fanouts(id) {
			if !mask[fo] {
				mask[fo] = true
				queue = append(queue, fo)
			}
		}
	}
	return mask
}
