package pcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"simgen/internal/fuzz"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/tt"
)

// flipLUTs returns a copy of net with one truth-table bit flipped in each
// of flips LUTs drawn from rng: a small ECO-style edit.
func flipLUTs(net *network.Network, rng *rand.Rand, flips int) *network.Network {
	var luts []network.NodeID
	for id := 0; id < net.NumNodes(); id++ {
		if net.Node(network.NodeID(id)).Kind == network.KindLUT {
			luts = append(luts, network.NodeID(id))
		}
	}
	out := net.Clone()
	for i := 0; i < flips; i++ {
		nd := out.Node(luts[rng.Intn(len(luts))])
		fn := nd.Func.Clone()
		m := rng.Intn(fn.NumMinterms())
		fn.SetBit(m, !fn.Bit(m))
		nd.Func = fn
	}
	out.Invalidate()
	return out
}

func lutNetwork(tb testing.TB, name string) *network.Network {
	tb.Helper()
	b, ok := genbench.ByName(name)
	if !ok {
		tb.Fatalf("unknown benchmark %q", name)
	}
	net, err := b.LUTNetwork()
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// TestKeyerGolden pins the structural keys of five mapped genbench
// circuits, and the Diff of one seeded four-flip edit of each, to digests
// recorded before NPN canonization moved to a word-level kernel. Keys
// persist in journals: any change here means caches written by earlier
// builds stop hitting.
func TestKeyerGolden(t *testing.T) {
	for _, c := range []struct{ name, digest string }{
		{"alu4", "0d18d5e62b7b4731aeafd587339affdc1c085db3641c6b773c9acbe223b13086"},
		{"apex2", "57333b26d62a5c4c00c7631ea40c1281cbeb49ce0829e7ea2f740f68fa0c0f3a"},
		{"dalu", "bd1da0a02af5a174dc36e4335a19ff3c1cb5c2deae3cb6ed08fcb9c823297746"},
		{"k2", "c874dafaf05c710b39008575dedcac32158d1ab02cb69af226e4fc19fa432c73"},
		{"m_ctrl", "92c944380e346d9293e18685af34aedea29af97cb704786a7213de2c7eda4d67"},
	} {
		net := lutNetwork(t, c.name)
		h := sha256.New()
		var buf [16]byte
		k := NewKeyer(net)
		for id := 0; id < net.NumNodes(); id++ {
			nh := k.nodeHash(network.NodeID(id))
			binary.LittleEndian.PutUint64(buf[:8], nh.key)
			binary.LittleEndian.PutUint64(buf[8:], nh.chk)
			h.Write(buf[:])
		}
		changed := Diff(net, flipLUTs(net, rand.New(rand.NewSource(1)), 4))
		if len(changed) == 0 {
			t.Errorf("%s: the edit changed no key", c.name)
		}
		sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
		for _, id := range changed {
			binary.LittleEndian.PutUint32(buf[:4], uint32(id))
			h.Write(buf[:4])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s: keys and diff digest %s, want %s", c.name, got, c.digest)
		}
	}
}

// sinkChanged keeps benchmarked results live.
var sinkChanged []network.NodeID

// BenchmarkDiff keys k2 and a four-flip edit of it and diffs the two: the
// structural-key cost an incremental re-verification pays up front. It
// also reports the NPN canonizations one Diff makes (one per entry of its
// shape memo), a count that does not depend on the host.
func BenchmarkDiff(b *testing.B) {
	base := lutNetwork(b, "k2")
	edited := flipLUTs(base, rand.New(rand.NewSource(1)), 4)
	b.ReportAllocs()
	b.ResetTimer()
	var shapes shapeMemo
	for i := 0; i < b.N; i++ {
		shapes = shapeMemo{}
		sinkChanged = diff(base, edited, shapes)
	}
	b.ReportMetric(float64(len(shapes)), "canons/op")
}

// TestKeyerMemoMatchesReference checks the shape memo against keying
// without one: every node's key and check hash from memoizing keyers, all
// sharing one memo, equal refNodeHashes' fresh per-LUT computation, on
// every genbench circuit and on fuzz networks rich in symmetric LUTs. The
// memo canonizes each distinct local function exactly once, and a Diff of
// a network against itself is empty.
func TestKeyerMemoMatchesReference(t *testing.T) {
	var nets []*network.Network
	if !testing.Short() {
		for _, b := range genbench.Registry() {
			net, err := b.LUTNetwork()
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			nets = append(nets, net)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		nets = append(nets, symmetricNetwork(rng))
	}
	shapes := shapeMemo{}
	distinct := map[uint64]bool{}
	for _, net := range nets {
		k := newKeyer(net, shapes)
		want := refNodeHashes(net)
		for id := range net.NumNodes() {
			nid := network.NodeID(id)
			if got := k.nodeHash(nid); got != want[id] {
				t.Fatalf("%s node %d: memoized hash %x, reference %x", net.Name, id, got, want[id])
			}
			if nd := net.Node(nid); nd.Kind == network.KindLUT && len(nd.Fanins) <= 5 {
				distinct[uint64(len(nd.Fanins))<<32|nd.Func.Words()[0]] = true
			}
		}
		if ch := Diff(net, net); len(ch) != 0 {
			t.Errorf("%s: Diff against itself changed %d nodes", net.Name, len(ch))
		}
	}
	if len(shapes) != len(distinct) {
		t.Errorf("memo holds %d shapes for %d distinct local functions", len(shapes), len(distinct))
	}
	sym := 0
	for _, sh := range shapes {
		if sh.sym {
			sym++
		}
	}
	t.Logf("%d networks, %d distinct functions, %d with a swap symmetry", len(nets), len(shapes), sym)
}

// symmetricNetwork is a small fuzz network whose LUTs mostly compute AND,
// OR, majority or parity over randomly negated inputs, with a randomly
// negated output: functions whose canonical tables have swap-symmetric
// slots, so keying must sort their fanin hashes.
func symmetricNetwork(rng *rand.Rand) *network.Network {
	shape := fuzz.DefaultShape()
	shape.MaxFanin = 5
	net := fuzz.Generate(rng, shape)
	for id := range net.NumNodes() {
		nd := net.Node(network.NodeID(id))
		k := len(nd.Fanins)
		if nd.Kind != network.KindLUT || k < 2 || k > 5 || rng.Intn(5) == 0 {
			continue
		}
		kind, inNeg, outNeg := rng.Intn(4), rng.Intn(1<<k), rng.Intn(2) == 1
		if rng.Intn(2) == 0 {
			inNeg = 0 // keep some plain gates, symmetric before canonization too
		}
		fn := tt.New(k)
		for m := range 1 << k {
			ones := bits.OnesCount(uint(m ^ inNeg))
			v := [4]bool{ones == k, ones > 0, 2*ones > k, ones%2 == 1}[kind]
			fn.SetBit(m, v != outNeg)
		}
		nd.Func = fn
	}
	net.Invalidate()
	return net
}

// refNodeHashes keys every node of net without a shape memo: each LUT of
// at most 5 inputs pays its own tt.NPNCanon and its own pairwise
// swap-symmetry search, as keying did before shapes were memoized.
func refNodeHashes(net *network.Network) []nodeHash {
	piOrd := map[network.NodeID]int{}
	for i, pi := range net.PIs() {
		piOrd[pi] = i
	}
	hs := make([]nodeHash, net.NumNodes())
	done := make([]bool, net.NumNodes())
	var hash func(id network.NodeID) nodeHash
	hash = func(id network.NodeID) nodeHash {
		if done[id] {
			return hs[id]
		}
		nd := net.Node(id)
		for _, f := range nd.Fanins {
			hash(f)
		}
		var h nodeHash
		n := len(nd.Fanins)
		switch {
		case nd.Kind == network.KindPI:
			ord := uint64(piOrd[id])
			h = nodeHash{fold(seedPI, ord), fold(altPI, ord)}
		case nd.Kind == network.KindConst:
			v := uint64(0)
			if nd.Func.IsConst1() {
				v = 1
			}
			h = nodeHash{fold(seedConst, v), fold(altConst, v)}
		case n <= 5 && nd.Func.NumVars() == n:
			canon, tr := tt.NPNCanon(nd.Func)
			h = nodeHash{fold(seedLUT, uint64(n)), fold(altLUT, uint64(n))}
			for _, w := range canon.Words() {
				h.key, h.chk = fold(h.key, w), fold(h.chk, w)
			}
			sv := make([]nodeHash, n)
			for p, i := range tr.Perm {
				fh := hs[nd.Fanins[i]]
				if tr.InputNeg>>uint(i)&1 == 1 {
					fh.key = mix64(fh.key ^ seedNeg)
					fh.chk = mix64(fh.chk ^ altNeg)
				}
				sv[p] = fh
			}
			refSymSort(canon, sv)
			for _, s := range sv {
				h.key, h.chk = fold(h.key, s.key), fold(h.chk, s.chk)
			}
			if tr.OutputNeg {
				h.key, h.chk = fold(h.key, 1), fold(h.chk, 1)
			}
		default:
			h = nodeHash{fold(seedWide, uint64(n)), fold(altWide, uint64(n))}
			for _, w := range nd.Func.Words() {
				h.key, h.chk = fold(h.key, w), fold(h.chk, w)
			}
			for _, f := range nd.Fanins {
				h.key, h.chk = fold(h.key, hs[f].key), fold(h.chk, hs[f].chk)
			}
		}
		hs[id], done[id] = h, true
		return h
	}
	for id := range net.NumNodes() {
		hash(network.NodeID(id))
	}
	return hs
}

// refSymSort sorts slot hashes within the swap-symmetry classes of canon,
// found by a union-find over every pair of slots.
func refSymSort(canon tt.Table, sv []nodeHash) {
	n := len(sv)
	cls := make([]int, n)
	for i := range cls {
		cls[i] = i
	}
	find := func(x int) int {
		for cls[x] != x {
			x = cls[x]
		}
		return x
	}
	perm := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if find(i) == find(j) {
				continue
			}
			for p := range perm {
				perm[p] = p
			}
			perm[i], perm[j] = j, i
			if slices.Equal(canon.Permute(perm).Words(), canon.Words()) {
				cls[find(j)] = find(i)
			}
		}
	}
	for i := 0; i < n; i++ {
		if find(i) != i {
			continue
		}
		var ps []int
		for p := i; p < n; p++ {
			if find(p) == i {
				ps = append(ps, p)
			}
		}
		vals := make([]nodeHash, len(ps))
		for a, p := range ps {
			vals[a] = sv[p]
		}
		sort.Slice(vals, func(a, b int) bool {
			return vals[a].key < vals[b].key || (vals[a].key == vals[b].key && vals[a].chk < vals[b].chk)
		})
		for a, p := range ps {
			sv[p] = vals[a]
		}
	}
}
