package tt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomTable(rng *rand.Rand, nvars int) Table {
	t := New(nvars)
	for i := range t.words {
		t.words[i] = rng.Uint64()
	}
	t.words[0] &= lowMask(nvars)
	return t
}

func TestConst(t *testing.T) {
	for n := 0; n <= 8; n++ {
		c0 := Const(n, false)
		c1 := Const(n, true)
		if !c0.IsConst0() || c0.IsConst1() {
			t.Errorf("n=%d: Const(false) misclassified", n)
		}
		if !c1.IsConst1() || c1.IsConst0() {
			t.Errorf("n=%d: Const(true) misclassified", n)
		}
		if !c0.Not().Equal(c1) {
			t.Errorf("n=%d: NOT 0 != 1", n)
		}
		if c1.CountOnes() != 1<<n {
			t.Errorf("n=%d: const1 has %d ones", n, c1.CountOnes())
		}
	}
}

func TestVarEval(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for i := 0; i < n; i++ {
			v := Var(n, i)
			for m := 0; m < 1<<n; m++ {
				want := m&(1<<i) != 0
				if v.Bit(m) != want {
					t.Fatalf("Var(%d,%d).Bit(%d) = %v, want %v", n, i, m, v.Bit(m), want)
				}
			}
		}
	}
}

func TestBooleanOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 8; n++ {
		a := randomTable(rng, n)
		b := randomTable(rng, n)
		and, or, xor, andn, not := a.And(b), a.Or(b), a.Xor(b), a.AndNot(b), a.Not()
		for m := 0; m < 1<<n; m++ {
			av, bv := a.Bit(m), b.Bit(m)
			if and.Bit(m) != (av && bv) {
				t.Fatalf("n=%d m=%d: AND wrong", n, m)
			}
			if or.Bit(m) != (av || bv) {
				t.Fatalf("n=%d m=%d: OR wrong", n, m)
			}
			if xor.Bit(m) != (av != bv) {
				t.Fatalf("n=%d m=%d: XOR wrong", n, m)
			}
			if andn.Bit(m) != (av && !bv) {
				t.Fatalf("n=%d m=%d: ANDNOT wrong", n, m)
			}
			if not.Bit(m) != !av {
				t.Fatalf("n=%d m=%d: NOT wrong", n, m)
			}
		}
	}
}

func TestCofactor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 8; n++ {
		f := randomTable(rng, n)
		for i := 0; i < n; i++ {
			for _, val := range []bool{false, true} {
				cf := f.Cofactor(i, val)
				for m := 0; m < 1<<n; m++ {
					src := m
					if val {
						src |= 1 << i
					} else {
						src &^= 1 << i
					}
					if cf.Bit(m) != f.Bit(src) {
						t.Fatalf("n=%d var=%d val=%v m=%d: cofactor wrong", n, i, val, m)
					}
				}
			}
		}
	}
}

func TestShannonExpansion(t *testing.T) {
	// f = (!x & f0) | (x & f1) must hold for every variable.
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 8; n++ {
		f := randomTable(rng, n)
		for i := 0; i < n; i++ {
			x := Var(n, i)
			recon := f.Cofactor(i, false).AndNot(x).Or(f.Cofactor(i, true).And(x))
			if !recon.Equal(f) {
				t.Fatalf("n=%d var=%d: Shannon expansion mismatch", n, i)
			}
		}
	}
}

func TestSupport(t *testing.T) {
	// f = x0 XOR x2 over 4 vars depends exactly on {0,2}.
	f := Var(4, 0).Xor(Var(4, 2))
	if got := f.SupportMask(); got != 0b0101 {
		t.Fatalf("support mask = %04b, want 0101", got)
	}
	if f.SupportSize() != 2 {
		t.Fatalf("support size = %d, want 2", f.SupportSize())
	}
	if Const(5, true).SupportSize() != 0 {
		t.Fatal("constant has non-empty support")
	}
}

func TestFromHexRoundTrip(t *testing.T) {
	cases := []struct {
		nvars int
		hex   string
	}{
		{2, "8"},  // AND
		{2, "6"},  // XOR
		{3, "e8"}, // MAJ
		{4, "8000"},
		{6, "8000000000000001"},
	}
	for _, c := range cases {
		f, err := FromHex(c.nvars, c.hex)
		if err != nil {
			t.Fatalf("FromHex(%d,%q): %v", c.nvars, c.hex, err)
		}
		if c.nvars == 2 && c.hex == "8" {
			if !f.Bit(3) || f.Bit(0) || f.Bit(1) || f.Bit(2) {
				t.Fatalf("AND table wrong: %v", f)
			}
		}
		if c.nvars == 3 && c.hex == "e8" {
			for m := 0; m < 8; m++ {
				ones := 0
				for i := 0; i < 3; i++ {
					if m&(1<<i) != 0 {
						ones++
					}
				}
				if f.Bit(m) != (ones >= 2) {
					t.Fatalf("MAJ table wrong at minterm %d", m)
				}
			}
		}
	}
	if _, err := FromHex(2, "123"); err == nil {
		t.Fatal("FromHex accepted wrong-length string")
	}
	if _, err := FromHex(2, "z"); err == nil {
		t.Fatal("FromHex accepted invalid digit")
	}
}

func TestPermute(t *testing.T) {
	// Swapping the inputs of x0 AND !x1 yields x1 AND !x0.
	f := Var(2, 0).AndNot(Var(2, 1))
	g := f.Permute([]int{1, 0})
	want := Var(2, 1).AndNot(Var(2, 0))
	if !g.Equal(want) {
		t.Fatalf("permute: got %v want %v", g, want)
	}
}

func TestExpand(t *testing.T) {
	// x0 AND x1 over 2 vars mapped onto vars {3,1} of a 5-var space.
	f := Var(2, 0).And(Var(2, 1))
	g := f.Expand(5, []int{3, 1})
	want := Var(5, 3).And(Var(5, 1))
	if !g.Equal(want) {
		t.Fatalf("expand mismatch")
	}
}

func TestHashDistinguishes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seen := map[uint64]Table{}
	for i := 0; i < 200; i++ {
		f := randomTable(rng, 6)
		if prev, ok := seen[f.Hash()]; ok && !prev.Equal(f) {
			t.Fatalf("hash collision between distinct tables")
		}
		seen[f.Hash()] = f
	}
}

func TestCubeBasics(t *testing.T) {
	c := Cube{}.WithLiteral(0, true).WithLiteral(2, false)
	if c.NumLiterals() != 2 || c.NumDC(4) != 2 {
		t.Fatalf("literal count wrong: %+v", c)
	}
	if got := c.StringN(4); got != "1-0-" {
		t.Fatalf("StringN = %q, want 1-0-", got)
	}
	if !c.Contains(0b0001) || c.Contains(0b0101) || !c.Contains(0b1011) {
		t.Fatalf("Contains wrong")
	}
	if v, cared := c.Has(0); !cared || !v {
		t.Fatal("Has(0) wrong")
	}
	if _, cared := c.Has(1); cared {
		t.Fatal("Has(1) should be don't-care")
	}
}

func TestCubeConsistency(t *testing.T) {
	c := Cube{Mask: 0b011, Val: 0b001} // x0=1, x1=0
	if !c.ConsistentWith(0b001, 0b001) {
		t.Fatal("should be consistent with x0=1")
	}
	if c.ConsistentWith(0b001, 0b000) {
		t.Fatal("should conflict with x0=0")
	}
	if !c.ConsistentWith(0b100, 0b100) {
		t.Fatal("should be consistent with unrelated x2=1")
	}
	if c.ConsistentWith(0b010, 0b010) {
		t.Fatal("should conflict with x1=1")
	}
}

func TestISOPCoversFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 8; n++ {
		for trial := 0; trial < 30; trial++ {
			f := randomTable(rng, n)
			cov := ISOP(f)
			if !cov.Table(n).Equal(f) {
				t.Fatalf("n=%d: ISOP cover does not equal function\nf=%v", n, f)
			}
			// Eval must agree with Bit on every minterm.
			for m := 0; m < 1<<n; m++ {
				if cov.Eval(uint32(m)) != f.Bit(m) {
					t.Fatalf("n=%d m=%d: cover Eval mismatch", n, m)
				}
			}
		}
	}
}

func TestISOPIrredundant(t *testing.T) {
	// Removing any single cube must leave some on-set minterm uncovered.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		f := randomTable(rng, 5)
		cov := ISOP(f)
		for drop := range cov {
			reduced := make(Cover, 0, len(cov)-1)
			reduced = append(reduced, cov[:drop]...)
			reduced = append(reduced, cov[drop+1:]...)
			if reduced.Table(5).Equal(f) {
				t.Fatalf("cover is redundant: cube %d removable", drop)
			}
		}
	}
}

func TestOnOffCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		f := randomTable(rng, 6)
		on, off := OnOffCovers(f)
		if !on.Table(6).Equal(f) {
			t.Fatal("on cover wrong")
		}
		if !off.Table(6).Equal(f.Not()) {
			t.Fatal("off cover wrong")
		}
		// No minterm may be in both covers.
		for m := 0; m < 64; m++ {
			if on.Eval(uint32(m)) && off.Eval(uint32(m)) {
				t.Fatalf("minterm %d covered by both on and off", m)
			}
		}
	}
}

func TestISOPKnownFunctions(t *testing.T) {
	// x0 AND x1: single cube with two literals.
	and := Var(2, 0).And(Var(2, 1))
	cov := ISOP(and)
	if len(cov) != 1 || cov[0].NumLiterals() != 2 {
		t.Fatalf("AND cover = %v", cov)
	}
	// XOR needs two cubes of two literals each.
	xor := Var(2, 0).Xor(Var(2, 1))
	cov = ISOP(xor)
	if len(cov) != 2 {
		t.Fatalf("XOR cover has %d cubes", len(cov))
	}
	// Constant 1: one empty cube. Constant 0: empty cover.
	if cov := ISOP(Const(3, true)); len(cov) != 1 || cov[0].Mask != 0 {
		t.Fatalf("const1 cover = %v", cov)
	}
	if cov := ISOP(Const(3, false)); len(cov) != 0 {
		t.Fatalf("const0 cover = %v", cov)
	}
}

// tableISOP runs the table recursion whatever the arity: the reference the
// one-word kernel must reproduce cube for cube.
func tableISOP(f Table) Cover {
	cover, _ := isop(f, f, f.nvars-1)
	return cover
}

// TestISOPWordMatchesTable checks that the one-word kernel returns exactly
// the table recursion's cover (same cubes, same order, nil for constant 0)
// on every function of at most 4 variables and on random 5- and
// 6-variable functions, on-set and off-set alike.
func TestISOPWordMatchesTable(t *testing.T) {
	check := func(f Table) {
		t.Helper()
		for _, g := range []Table{f, f.Not()} {
			if got, want := ISOP(g), tableISOP(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d f=%s: word cover %v, table cover %v", g.nvars, g, got, want)
			}
		}
	}
	for n := 0; n <= 4; n++ {
		for w := uint64(0); w < 1<<(1<<n); w++ {
			check(FromWords(n, []uint64{w}))
		}
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 10000; trial++ {
		check(randomTable(rng, 5))
		check(randomTable(rng, 6))
	}
}

func TestISOPQuick(t *testing.T) {
	// Property: for arbitrary 6-input functions the ISOP equals the function.
	check := func(w uint64) bool {
		f := FromWords(6, []uint64{w})
		return ISOP(f).Table(6).Equal(f)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCofactorQuick(t *testing.T) {
	// Property: cofactor removes dependence on the variable.
	check := func(w uint64, vi uint8) bool {
		f := FromWords(6, []uint64{w})
		v := int(vi % 6)
		return !f.Cofactor(v, true).HasVar(v) && !f.Cofactor(v, false).HasVar(v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableStringFormat(t *testing.T) {
	and := Var(2, 0).And(Var(2, 1))
	if got := and.String(); got != "1000" {
		t.Fatalf("AND String = %q, want 1000", got)
	}
}

func TestLargeVarTables(t *testing.T) {
	// 8-variable tables exercise the multi-word paths.
	for i := 0; i < 8; i++ {
		v := Var(8, i)
		if v.CountOnes() != 128 {
			t.Fatalf("Var(8,%d) has %d ones, want 128", i, v.CountOnes())
		}
		if !v.HasVar(i) {
			t.Fatalf("Var(8,%d) does not depend on %d", i, i)
		}
		for j := 0; j < 8; j++ {
			if j != i && v.HasVar(j) {
				t.Fatalf("Var(8,%d) depends on %d", i, j)
			}
		}
	}
}
