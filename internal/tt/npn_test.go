package tt

import (
	"fmt"
	"math/rand"
	"testing"
)

// npnCanonRef is the table search NPNCanon replaced, kept as the reference
// the word kernel must match: the same canonical table and the same
// transform, tie-break included.
func npnCanonRef(f Table) (Table, NPNTransform) {
	n := f.NumVars()
	if n > 5 {
		panic("tt: NPNCanon limited to 5 variables")
	}
	best := f.Clone()
	bestTr := NPNTransform{Perm: identityPerm(n)}
	perms := permutations(n)
	for _, perm := range perms {
		for neg := uint32(0); neg < 1<<uint(n); neg++ {
			g := f
			for i := 0; i < n; i++ {
				if neg&(1<<uint(i)) != 0 {
					g = g.flipVar(i)
				}
			}
			g = g.Permute(perm)
			for _, outNeg := range []bool{false, true} {
				h := g
				if outNeg {
					h = g.Not()
				}
				if tableLess(h, best) {
					best = h
					bestTr = NPNTransform{
						Perm:      append([]int(nil), perm...),
						InputNeg:  neg,
						OutputNeg: outNeg,
					}
				}
			}
		}
	}
	return best, bestTr
}

// tableLess orders tables lexicographically by words.
func tableLess(a, b Table) bool {
	for i := len(a.words) - 1; i >= 0; i-- {
		if a.words[i] != b.words[i] {
			return a.words[i] < b.words[i]
		}
	}
	return false
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func randomTransform(rng *rand.Rand, n int) NPNTransform {
	perm := rng.Perm(n)
	return NPNTransform{
		Perm:      perm,
		InputNeg:  uint32(rng.Intn(1 << n)),
		OutputNeg: rng.Intn(2) == 1,
	}
}

func TestNPNCanonInvariance(t *testing.T) {
	// The canonical form must be identical for every NPN variant of a
	// function.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(6) // 0..5 vars
		f := randomTable(rng, n)
		canon, _ := NPNCanon(f)
		for v := 0; v < 6; v++ {
			variant := randomTransform(rng, n).Apply(f)
			canon2, _ := NPNCanon(variant)
			if !canon.Equal(canon2) {
				t.Fatalf("trial %d: NPN variants canonize differently:\n%v\n%v", trial, canon, canon2)
			}
		}
	}
}

func TestNPNCanonTransformProducesCanon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(6)
		f := randomTable(rng, n)
		canon, tr := NPNCanon(f)
		if !tr.Apply(f).Equal(canon) {
			t.Fatalf("trial %d: transform does not produce the canonical form", trial)
		}
	}
}

func TestNPNInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(6)
		f := randomTable(rng, n)
		canon, tr := NPNCanon(f)
		back := tr.Invert().Apply(canon)
		if !back.Equal(f) {
			t.Fatalf("trial %d: invert round-trip failed\nf=    %v\nback= %v", trial, f, back)
		}
		// Invert of arbitrary random transforms too.
		tr2 := randomTransform(rng, n)
		g := tr2.Apply(f)
		if !tr2.Invert().Apply(g).Equal(f) {
			t.Fatalf("trial %d: random transform invert failed", trial)
		}
	}
}

func TestNPNCanonDistinguishesClasses(t *testing.T) {
	// AND and XOR are in different NPN classes; AND and OR are in the same
	// (OR = NOT(AND(NOT,NOT))).
	and := Var(2, 0).And(Var(2, 1))
	or := Var(2, 0).Or(Var(2, 1))
	xor := Var(2, 0).Xor(Var(2, 1))
	cAnd, _ := NPNCanon(and)
	cOr, _ := NPNCanon(or)
	cXor, _ := NPNCanon(xor)
	if !cAnd.Equal(cOr) {
		t.Fatal("AND and OR must share an NPN class")
	}
	if cAnd.Equal(cXor) {
		t.Fatal("AND and XOR must not share an NPN class")
	}
}

func TestNPNClassCount4Vars(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates 65536 functions")
	}
	// The number of NPN classes of 4-variable functions is a known
	// constant: 222.
	classes := map[uint64]bool{}
	for v := 0; v < 1<<16; v++ {
		f := FromWords(4, []uint64{uint64(v)})
		canon, _ := NPNCanon(f)
		classes[canon.Hash()] = true
	}
	if len(classes) != 222 {
		t.Fatalf("found %d NPN classes of 4-var functions, want 222", len(classes))
	}
}

func TestNPNCanonRejectsLargeFunctions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NPNCanon accepted a 6-variable function")
		}
	}()
	NPNCanon(New(6))
}

// sinkTable keeps benchmarked results live.
var sinkTable Table

func BenchmarkNPNCanon(b *testing.B) {
	for _, n := range []int{4, 5} {
		rng := rand.New(rand.NewSource(int64(n)))
		fs := make([]Table, 64)
		for i := range fs {
			fs[i] = randomTable(rng, n)
		}
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTable, _ = NPNCanon(fs[i%len(fs)])
			}
		})
	}
}
