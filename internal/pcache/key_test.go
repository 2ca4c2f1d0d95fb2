package pcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/network"
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
// structural-key cost an incremental re-verification pays up front.
func BenchmarkDiff(b *testing.B) {
	base := lutNetwork(b, "k2")
	edited := flipLUTs(base, rand.New(rand.NewSource(1)), 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkChanged = Diff(base, edited)
	}
}
