package tt_test

import (
	"math/rand"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/tt"
)

// ecoCircuits are the mapped genbench circuits whose small LUT functions
// the structural cache keys canonize on incremental re-verification.
var ecoCircuits = []string{"alu4", "apex2", "priority", "dalu", "e64", "log2", "k2", "m_ctrl"}

// TestNPNCanonMatchesReference checks the word kernel against the table
// search it replaced: the same canonical table and the same transform,
// since the transform's choice among equally canonical ones is what cache
// keys record.
func TestNPNCanonMatchesReference(t *testing.T) {
	var fs []tt.Table
	for n := 0; n <= 3; n++ {
		for v := 0; v < 1<<(1<<n); v++ {
			fs = append(fs, tt.FromWords(n, []uint64{uint64(v)}))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		fs = append(fs, tt.FromWords(4, []uint64{rng.Uint64()}))
	}
	for i := 0; i < 100; i++ {
		fs = append(fs, tt.FromWords(5, []uint64{rng.Uint64()}))
	}
	seen := map[[2]uint64]bool{}
	for _, name := range ecoCircuits {
		b, ok := genbench.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		net, err := b.LUTNetwork()
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < net.NumNodes(); id++ {
			nd := net.Node(network.NodeID(id))
			if nd.Kind != network.KindLUT || nd.Func.NumVars() > 5 {
				continue
			}
			k := [2]uint64{uint64(nd.Func.NumVars()), nd.Func.Words()[0]}
			if !seen[k] {
				seen[k] = true
				fs = append(fs, nd.Func)
			}
		}
	}
	for _, f := range fs {
		got, gotTr := tt.NPNCanon(f)
		want, wantTr := tt.NPNCanonRef(f)
		if !got.Equal(want) || !sameTransform(gotTr, wantTr) {
			t.Fatalf("%d-var %v: kernel gives %v %+v, reference %v %+v",
				f.NumVars(), f, got, gotTr, want, wantTr)
		}
	}

	f := tt.FromWords(5, []uint64{0x6996a55a})
	if allocs := testing.AllocsPerRun(100, func() { tt.NPNCanon(f) }); allocs > 2 {
		t.Errorf("NPNCanon allocates %v times per call, want at most 2 (table and Perm)", allocs)
	}
}

func sameTransform(a, b tt.NPNTransform) bool {
	if len(a.Perm) != len(b.Perm) || a.InputNeg != b.InputNeg || a.OutputNeg != b.OutputNeg {
		return false
	}
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			return false
		}
	}
	return true
}
