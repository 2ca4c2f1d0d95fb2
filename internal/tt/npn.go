package tt

import "math/bits"

// NPN canonization: two functions are NPN-equivalent when one can be
// obtained from the other by Negating inputs, Permuting inputs, and/or
// Negating the output. Cut rewriting caches one optimal structure per NPN
// class instead of per function, shrinking the library by orders of
// magnitude.

// NPNTransform describes how to map a function onto its canonical form:
// first negate the inputs in InputNeg (indexed over the original
// variables), then permute so that canonical position p reads original
// input Perm[p] (Table.Permute semantics), then negate the output when
// OutputNeg is set.
type NPNTransform struct {
	Perm      []int
	InputNeg  uint32
	OutputNeg bool
}

// Apply performs the transform on a table.
func (tr NPNTransform) Apply(f Table) Table {
	g := f
	for i := 0; i < f.NumVars(); i++ {
		if tr.InputNeg&(1<<uint(i)) != 0 {
			g = g.flipVar(i)
		}
	}
	g = g.Permute(tr.Perm)
	if tr.OutputNeg {
		g = g.Not()
	}
	return g
}

// flipVar exchanges the two cofactors of variable i (input negation).
func (t Table) flipVar(i int) Table {
	r := New(t.nvars)
	for m := 0; m < t.NumMinterms(); m++ {
		if t.Bit(m) {
			r.SetBit(m^(1<<uint(i)), true)
		}
	}
	return r
}

// NPNCanon returns the lexicographically smallest table NPN-equivalent to f
// together with the transform that produces it. Exhaustive search, refused
// above 5 variables where exhaustion explodes: a table of up to 5
// variables fits in the low 32 bits of one word, so every candidate is a
// plain integer and the search allocates nothing but its result.
//
// Candidates are visited in a fixed order: permutations in
// permutations(n) order, then input-negation masks ascending, then the
// output polarity, positive first. The first strict minimum wins, starting
// from f itself under the identity transform. Among the transforms that
// reach the canonical table the order picks one, and callers depend on
// which: it decides the canonical slot order of a LUT's fanins, and
// structural cache keys built from that order persist on disk.
func NPNCanon(f Table) (Table, NPNTransform) {
	n := f.NumVars()
	if n > 5 {
		panic("tt: NPNCanon limited to 5 variables")
	}
	mask := lowMask(n)
	best := f.words[0]
	bestPerm, bestNeg, bestOut := 0, 0, false // permutations(n)[0] is the identity
	var neg [32]uint64
	for pi := range npnPerms[n] {
		p := &npnPerms[n][pi]
		// neg[m] is the permuted table of f with the original inputs in m
		// negated. Negating original input i of f is negating canonical
		// input inv[i] of the permuted table, so all 2^n variants follow
		// from one permutation by cofactor swaps.
		neg[0] = 0
		for w := f.words[0]; w != 0; w &= w - 1 {
			neg[0] |= 1 << p.to[bits.TrailingZeros64(w)]
		}
		for i := 0; i < n; i++ {
			vm, s := varMasks[p.inv[i]], uint(1)<<p.inv[i]
			lo, hi := neg[:1<<i], neg[1<<i:2<<i]
			for m, g := range lo {
				hi[m] = (g&vm)>>s | (g&^vm)<<s
			}
		}
		for m, g := range neg[:1<<n] {
			if g < best {
				best, bestPerm, bestNeg, bestOut = g, pi, m, false
			}
			if g ^= mask; g < best {
				best, bestPerm, bestNeg, bestOut = g, pi, m, true
			}
		}
	}
	canon := New(n)
	canon.words[0] = best
	return canon, NPNTransform{
		Perm:      append([]int(nil), npnPerms[n][bestPerm].perm...),
		InputNeg:  uint32(bestNeg),
		OutputNeg: bestOut,
	}
}

// npnPerm is one input permutation of NPNCanon's search with its word
// kernel precomputed: Table.Permute(perm) moves minterm m to minterm
// to[m], and canonical position inv[i] reads original input i.
type npnPerm struct {
	perm []int
	inv  [5]uint8
	to   [32]uint8
}

// npnPerms[n] holds the permutations of [0,n) in permutations(n) order,
// the order NPNCanon visits them in.
var npnPerms = func() (all [6][]npnPerm) {
	for n := range all {
		for _, perm := range permutations(n) {
			p := npnPerm{perm: perm}
			for ni, oi := range perm {
				p.inv[oi] = uint8(ni)
			}
			for m := 0; m < 1<<n; m++ {
				for ni, oi := range perm {
					p.to[m] |= uint8(m>>oi&1) << ni
				}
			}
			all[n] = append(all[n], p)
		}
	}
	return all
}()

// permutations enumerates all permutations of [0,n).
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used uint32)
	rec = func(cur []int, used uint32) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if used&(1<<uint(i)) != 0 {
				continue
			}
			rec(append(cur, i), used|1<<uint(i))
		}
	}
	rec(nil, 0)
	return out
}

// Invert returns the transform mapping the canonical form back to f.
func (tr NPNTransform) Invert() NPNTransform {
	n := len(tr.Perm)
	inv := NPNTransform{Perm: make([]int, n), OutputNeg: tr.OutputNeg}
	for i, p := range tr.Perm {
		inv.Perm[p] = i
	}
	// The forward order is negate-then-permute; the inverse is
	// permute-back-then-negate. Rewritten in negate-then-permute form, the
	// negation mask travels through the permutation: original input i maps
	// to canonical position perm^{-1}(i), so its negation bit does too.
	for i := 0; i < n; i++ {
		if tr.InputNeg&(1<<uint(i)) != 0 {
			inv.InputNeg |= 1 << uint(inv.Perm[i])
		}
	}
	return inv
}
