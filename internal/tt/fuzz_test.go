package tt

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzISOP drives the Minato–Morreale ISOP computation with arbitrary truth
// tables and checks its contract: the returned cover evaluates to exactly
// the on-set of the input (Cover.Table(n).Equal(f)), every cube is an
// implicant of f, and up to 6 variables the one-word kernel's cover is the
// table recursion's.
func FuzzISOP(f *testing.F) {
	f.Add(uint8(3), []byte{0b10010110})             // xor3
	f.Add(uint8(2), []byte{0b1000})                 // and2
	f.Add(uint8(0), []byte{1})                      // const 1
	f.Add(uint8(6), []byte{0, 0, 0, 0, 0, 0, 0, 0}) // const 0 over 6 vars
	f.Add(uint8(7), []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0xfe, 0xdc, 0xba, 0x98})
	f.Fuzz(func(t *testing.T, nv uint8, raw []byte) {
		nvars := int(nv) % 11 // up to 10 vars = 16 words: plenty, still fast
		words := make([]uint64, wordsFor(nvars))
		for i := range words {
			var chunk [8]byte
			copy(chunk[:], tail(raw, i*8))
			words[i] = binary.LittleEndian.Uint64(chunk[:])
		}
		fn := FromWords(nvars, words)
		cover := ISOP(fn)
		if nvars <= 6 {
			if ref := tableISOP(fn); !reflect.DeepEqual(cover, ref) {
				t.Fatalf("word cover %v, table cover %v for %s", cover, ref, fn)
			}
		}
		if !cover.Table(nvars).Equal(fn) {
			t.Fatalf("ISOP cover does not equal the input table\nf: %s\ncover: %v", fn, cover)
		}
		for _, cube := range cover {
			ct := cube.Table(nvars)
			if !ct.And(fn).Equal(ct) {
				t.Fatalf("cube %s is not an implicant of %s", cube.StringN(nvars), fn)
			}
		}
	})
}

// wordsFor mirrors the internal word count for an nvars-variable table.
func wordsFor(nvars int) int {
	if nvars <= 6 {
		return 1
	}
	return 1 << (nvars - 6)
}

// tail returns raw[off:] or nil when off is out of range.
func tail(raw []byte, off int) []byte {
	if off >= len(raw) {
		return nil
	}
	return raw[off:]
}
