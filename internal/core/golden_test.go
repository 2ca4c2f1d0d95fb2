package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"simgen/internal/genbench"
	"simgen/internal/sim"
)

// hashingSource forwards to a generator and feeds every batch it returns
// into h, one length-prefixed byte per vector bit.
type hashingSource struct {
	g interface {
		VectorSource
		StatsSource
	}
	h hash.Hash
}

func (s *hashingSource) Name() string { return s.g.Name() }

func (s *hashingSource) GenStats() GenStats { return s.g.GenStats() }

func (s *hashingSource) NextBatch(classes *sim.Classes, max int) [][]bool {
	batch := s.g.NextBatch(classes, max)
	writeBatch(s.h, batch)
	return batch
}

// writeBatch feeds a batch into h, one length-prefixed byte per vector bit.
func writeBatch(h hash.Hash, batch [][]bool) {
	writeInts(h, int64(len(batch)))
	for _, vec := range batch {
		buf := make([]byte, len(vec))
		for i, b := range vec {
			if b {
				buf[i] = 1
			}
		}
		h.Write(buf)
	}
}

func writeInts(h hash.Hash, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

// TestVectorStreamGolden pins SimGen's output byte for byte: every vector
// of 20 stepped guided iterations of 64 (seed 1, StrategySimGen; the
// paper's fixed count, past where RunContext's stagnation stop would end
// the run), the final
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
		for i := 0; i < 20; i++ {
			run.Step(src, i)
		}
		gs := src.GenStats()
		writeInts(src.h, gs.Decisions, gs.Implications, gs.Conflicts, gs.Backtracks, int64(run.Classes.Cost()))
		if got := hex.EncodeToString(src.h.Sum(nil)); got != want[name] {
			t.Errorf("%s: vector stream hash %s, want %s (stats %+v, cost %d)",
				name, got, want[name], gs, run.Classes.Cost())
		}
	}
}

// TestRevSStreamGolden pins RevS's output byte for byte the same way:
// every vector of 20 stepped iterations of 64 at seed 1 over the same
// circuits, then the final generation counters and partition cost. RevS
// visits the pair's union cone in descending node ID; any change to that
// order moves its RNG draws and trips this.
func TestRevSStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("maps three suite circuits")
	}
	want := map[string]string{
		"alu4":  "d3eb084d19d55a5330486475e8edcb892745e2baaeadaac7e974b8cf17a35f71",
		"apex2": "7d038c200b2fbc63379481991776d22dbb471a9a8a7655126db3b300e2917697",
		"pdc":   "4d790e1f39a5e8242fef1212d3782db88397a76581246eaf6b0431eee9568fd8",
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
		src := &hashingSource{g: NewReverse(net, 1), h: sha256.New()}
		for i := 0; i < 20; i++ {
			run.Step(src, i)
		}
		gs := src.GenStats()
		writeInts(src.h, gs.Decisions, gs.Implications, gs.Conflicts, gs.Backtracks, int64(run.Classes.Cost()))
		if got := hex.EncodeToString(src.h.Sum(nil)); got != want[name] {
			t.Errorf("%s: vector stream hash %s, want %s (stats %+v, cost %d)",
				name, got, want[name], gs, run.Classes.Cost())
		}
	}
}

// batchHashSource forwards to a Generator and keeps one SHA-256 digest per
// batch it returns.
type batchHashSource struct {
	g      *Generator
	hashes []string
}

func (s *batchHashSource) Name() string { return s.g.Name() }

func (s *batchHashSource) GenStats() GenStats { return s.g.GenStats() }

func (s *batchHashSource) NextBatch(classes *sim.Classes, max int) [][]bool {
	batch := s.g.NextBatch(classes, max)
	h := sha256.New()
	writeBatch(h, batch)
	s.hashes = append(s.hashes, hex.EncodeToString(h.Sum(nil)))
	return batch
}

// TestRunContextPrefix checks the guided driver's prefix invariant on the
// golden circuits: RunContext(…, 20) simulates exactly the first m batches
// of the 20-iteration stepped stream that TestVectorStreamGolden pins,
// where m is the first iteration that ends 3 flat ones in a row (or 20).
func TestRunContextPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("maps three suite circuits")
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
		fixed := NewRunner(net, 1, 1)
		want := &batchHashSource{g: NewGenerator(net, StrategySimGen, 1)}
		var costs []int
		m, flat, cost := 20, 0, fixed.Classes.Cost()
		for i := 0; i < 20; i++ {
			st := fixed.Step(want, i)
			if st.Cost < cost {
				flat = 0
			} else {
				flat++
			}
			cost = st.Cost
			costs = append(costs, cost)
			if flat == 3 && m == 20 {
				m = i + 1
			}
		}

		run := NewRunner(net, 1, 1)
		got := &batchHashSource{g: NewGenerator(net, StrategySimGen, 1)}
		stats := run.RunContext(context.Background(), got, 20)
		if len(stats) != m || len(got.hashes) != m {
			t.Errorf("%s: driver ran %d iterations (%d batches), want %d", name, len(stats), len(got.hashes), m)
			continue
		}
		for i := range got.hashes {
			if got.hashes[i] != want.hashes[i] || stats[i].Cost != costs[i] {
				t.Errorf("%s: iteration %d differs from the stepped stream", name, i)
			}
		}
		t.Logf("%s: %d of 20 iterations, cost %d", name, m, run.Classes.Cost())
	}
}
