package tt

// ISOP computes an irredundant sum-of-products cover of the function using
// the Minato–Morreale algorithm. The returned cover covers exactly the
// on-set of f: Cover.Table(f.NumVars()).Equal(f) always holds. Functions
// of at most 6 variables run the recursion on their single word
// (isopWord); wider ones on tables (isop). Both split on the same
// variables and emit cubes in the same order, so the cover does not
// depend on which one ran.
func ISOP(f Table) Cover {
	if f.nvars <= 6 {
		return isopWord(f.words[0], f.nvars)
	}
	cover, _ := isop(f, f, f.nvars-1)
	return cover
}

// OnOffCovers returns ISOP covers of the on-set and the off-set of f. These
// are the row tables used by SimGen: a row of the on cover is an input
// pattern (with don't-cares) forcing the output to 1, and symmetrically for
// the off cover.
func OnOffCovers(f Table) (on, off Cover) {
	return ISOP(f), ISOP(f.Not())
}

// isop computes an SOP cover g with L <= g <= U, considering variables
// 0..top. It returns the cover and its truth table.
func isop(L, U Table, top int) (Cover, Table) {
	if L.IsConst0() {
		return nil, Const(L.nvars, false)
	}
	if U.IsConst1() {
		return Cover{{}}, Const(L.nvars, true)
	}
	// Find the highest variable on which either bound actually depends.
	v := top
	for v >= 0 && !L.HasVar(v) && !U.HasVar(v) {
		v--
	}
	if v < 0 {
		// L is a non-zero constant and U is not constant 1: impossible
		// when L <= U, so L must be constant 1 here.
		return Cover{{}}, Const(L.nvars, true)
	}

	L0, L1 := L.Cofactor(v, false), L.Cofactor(v, true)
	U0, U1 := U.Cofactor(v, false), U.Cofactor(v, true)

	// Cubes that must contain literal !v: needed where L0 is on but U1
	// cannot cover.
	c0, g0 := isop(L0.AndNot(U1), U0, v-1)
	// Cubes that must contain literal v.
	c1, g1 := isop(L1.AndNot(U0), U1, v-1)
	// Remaining on-set, coverable without a v literal.
	Lnew := L0.AndNot(g0).Or(L1.AndNot(g1))
	cs, gs := isop(Lnew, U0.And(U1), v-1)

	cover := make(Cover, 0, len(c0)+len(c1)+len(cs))
	for _, c := range c0 {
		cover = append(cover, c.WithLiteral(v, false))
	}
	for _, c := range c1 {
		cover = append(cover, c.WithLiteral(v, true))
	}
	cover = append(cover, cs...)

	nv := Var(L.nvars, v)
	g := g0.AndNot(nv).Or(g1.And(nv)).Or(gs)
	return cover, g
}

// isopWord is ISOP of the nvars-variable function (nvars <= 6) whose
// truth table is the word f. The recursion appends into a stack buffer
// and the cover is copied out once: an irredundant cover has no more
// cubes than minterms, so 64 cubes always fit.
func isopWord(f uint64, nvars int) Cover {
	if f == 0 {
		return nil
	}
	var buf [64]Cube
	cubes, _ := isop1(f, f, nvars-1, lowMask(nvars), buf[:0])
	cover := make(Cover, len(cubes))
	copy(cover, cubes)
	return cover
}

// isop1 is isop on single words, full being the constant-1 word of the
// function's arity: it appends the cover of some g with L <= g <= U over
// variables 0..top to out, in isop's cube order, and returns g.
func isop1(L, U uint64, top int, full uint64, out []Cube) ([]Cube, uint64) {
	if L == 0 {
		return out, 0
	}
	if U == full {
		return append(out, Cube{}), full
	}
	v := top
	var L0, L1, U0, U1 uint64
	for ; v >= 0; v-- {
		L0, L1 = cofactors(L, v)
		U0, U1 = cofactors(U, v)
		if L0 != L1 || U0 != U1 {
			break
		}
	}
	if v < 0 {
		return append(out, Cube{}), full
	}

	start := len(out)
	out, g0 := isop1(L0&^U1, U0, v-1, full, out)
	for i := start; i < len(out); i++ {
		out[i] = out[i].WithLiteral(v, false)
	}
	mid := len(out)
	out, g1 := isop1(L1&^U0, U1, v-1, full, out)
	for i := mid; i < len(out); i++ {
		out[i] = out[i].WithLiteral(v, true)
	}
	out, gs := isop1(L0&^g0|L1&^g1, U0&U1, v-1, full, out)

	nv := varMasks[v] & full
	return out, g0&^nv | g1&nv | gs
}

// cofactors returns the two cofactors of the single-word table x on
// variable v < 6, each still expressed over all of x's variables.
func cofactors(x uint64, v int) (c0, c1 uint64) {
	s, m := uint(1)<<uint(v), varMasks[v]
	lo, hi := x&^m, x&m
	return lo | lo<<s, hi | hi>>s
}
