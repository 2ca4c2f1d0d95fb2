package tt

import (
	"math/bits"
	"strings"
)

// Cube is a partial assignment over up to MaxVars variables: bit i of Mask
// is set when variable i is cared for, in which case bit i of Val is its
// value. Bits outside Mask must be zero in Val. A Cube is one "truth-table
// row" in the sense of the SimGen paper; unset positions are don't-cares.
type Cube struct {
	Mask uint32
	Val  uint32
}

// Contains reports whether the cube contains minterm m (agrees on all cared
// variables).
func (c Cube) Contains(m uint32) bool {
	return m&c.Mask == c.Val
}

// NumLiterals returns the number of cared (non-don't-care) variables.
func (c Cube) NumLiterals() int { return bits.OnesCount32(c.Mask) }

// NumDC returns the number of don't-care variables among the first nvars.
func (c Cube) NumDC(nvars int) int { return nvars - c.NumLiterals() }

// Has reports whether variable i is cared for, and its value.
func (c Cube) Has(i int) (val, cared bool) {
	bit := uint32(1) << uint(i)
	return c.Val&bit != 0, c.Mask&bit != 0
}

// WithLiteral returns the cube extended by variable i = v.
func (c Cube) WithLiteral(i int, v bool) Cube {
	bit := uint32(1) << uint(i)
	c.Mask |= bit
	if v {
		c.Val |= bit
	} else {
		c.Val &^= bit
	}
	return c
}

// ConsistentWith reports whether the cube does not contradict a partial
// assignment given as (assignedMask, assignedVal): on every variable both
// care about, the values agree.
func (c Cube) ConsistentWith(assignedMask, assignedVal uint32) bool {
	both := c.Mask & assignedMask
	return (c.Val^assignedVal)&both == 0
}

// Table expands the cube into a truth table over nvars variables.
func (c Cube) Table(nvars int) Table {
	t := New(nvars)
	t.OrCube(c)
	return t
}

// OrCube adds the cube's minterms to t in place. Cared variables at or
// above t's variable count are ignored, as Table ignores them.
func (t *Table) OrCube(c Cube) {
	care := c.Mask & (1<<uint(t.nvars) - 1)
	val := c.Val & care
	// Variables 0-5 select bits within a word: the cube's pattern is the
	// same in every word it touches.
	pat := lowMask(t.nvars)
	for i := 0; i < 6 && i < t.nvars; i++ {
		switch {
		case care>>uint(i)&1 == 0:
		case val>>uint(i)&1 == 1:
			pat &= varMasks[i]
		default:
			pat &^= varMasks[i]
		}
	}
	// Variables 6 and up select words: bit i-6 of a word's index is the
	// value of variable i, so the cube touches the words that agree with
	// it there, one per subset of the free high variables.
	hiVal, free := val>>6, uint32(len(t.words)-1)&^(care>>6)
	for s := free; ; s = (s - 1) & free {
		t.words[hiVal|s] |= pat
		if s == 0 {
			return
		}
	}
}

// String renders the cube over nvars variables with '0', '1' and '-',
// variable 0 first.
func (c Cube) StringN(nvars int) string {
	var b strings.Builder
	for i := 0; i < nvars; i++ {
		switch v, cared := c.Has(i); {
		case !cared:
			b.WriteByte('-')
		case v:
			b.WriteByte('1')
		default:
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Cover is a set of cubes interpreted as a sum of products.
type Cover []Cube

// Table expands the cover into a truth table over nvars variables.
func (cv Cover) Table(nvars int) Table {
	t := New(nvars)
	for _, c := range cv {
		t.OrCube(c)
	}
	return t
}

// Eval reports whether the cover evaluates to 1 on minterm m.
func (cv Cover) Eval(m uint32) bool {
	for _, c := range cv {
		if c.Contains(m) {
			return true
		}
	}
	return false
}

// Literals returns the total number of literals across all cubes.
func (cv Cover) Literals() int {
	n := 0
	for _, c := range cv {
		n += c.NumLiterals()
	}
	return n
}
