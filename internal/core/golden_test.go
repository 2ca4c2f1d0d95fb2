package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/sim"
)

// hashingSource forwards to a Generator and feeds every batch it returns
// into h, one length-prefixed byte per vector bit.
type hashingSource struct {
	g *Generator
	h hash.Hash
}

func (s *hashingSource) Name() string { return s.g.Name() }

func (s *hashingSource) GenStats() GenStats { return s.g.GenStats() }

func (s *hashingSource) NextBatch(classes *sim.Classes, max int) [][]bool {
	batch := s.g.NextBatch(classes, max)
	writeInts(s.h, int64(len(batch)))
	for _, vec := range batch {
		buf := make([]byte, len(vec))
		for i, b := range vec {
			if b {
				buf[i] = 1
			}
		}
		s.h.Write(buf)
	}
	return batch
}

func writeInts(h hash.Hash, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

// TestVectorStreamGolden pins SimGen's output byte for byte: every vector
// of 20 guided iterations of 64 (seed 1, StrategySimGen), the final
// generation counters and the final partition cost. The implication and
// decision machinery may be made faster, but any change to which vectors
// come out — including a different number of RNG draws — trips it.
func TestVectorStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("maps three suite circuits")
	}
	want := map[string]string{
		"alu4":  "afb192a34119957d0cf42742caaecfb66d2798147af8ea58e41472d51c71cf48",
		"apex2": "7b8872bd9e74163424989684da7a586b80445159125207009db7ae57dd03342e",
		"pdc":   "159e5d43be85bed38f49af453434e0cc06840c24b4318bf59669a5c0f555dda1",
	}
	for _, name := range []string{"alu4", "apex2", "pdc"} {
		b, ok := genbench.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		net, err := b.LUTNetwork()
		if err != nil {
			t.Fatal(err)
		}
		run := NewRunner(net, 1, 1)
		src := &hashingSource{g: NewGenerator(net, StrategySimGen, 1), h: sha256.New()}
		run.Run(src, 20)
		gs := src.GenStats()
		writeInts(src.h, gs.Decisions, gs.Implications, gs.Conflicts, gs.Backtracks, int64(run.Classes.Cost()))
		if got := hex.EncodeToString(src.h.Sum(nil)); got != want[name] {
			t.Errorf("%s: vector stream hash %s, want %s (stats %+v, cost %d)",
				name, got, want[name], gs, run.Classes.Cost())
		}
	}
}
