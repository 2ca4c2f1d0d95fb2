package blif_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"simgen/internal/blif"
	"simgen/internal/fuzz"
)

// TestParseAllocation pins what a parse of a service-sized circuit costs:
// the fuzz circuits of every shape, as sweepd's jobs carry them, must parse
// in well under 256 KiB of allocation each. A reader that sets aside a
// large line buffer up front (1 MiB, zeroed, per call) fails it.
func TestParseAllocation(t *testing.T) {
	var texts [][]byte
	rng := rand.New(rand.NewSource(1))
	for _, name := range fuzz.ShapeNames() {
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			net := fuzz.Generate(rand.New(rand.NewSource(rng.Int63())), fuzz.Shapes()[name])
			if err := blif.Write(&buf, net); err != nil {
				t.Fatal(err)
			}
			texts = append(texts, buf.Bytes())
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, text := range texts {
		if _, err := blif.Parse(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perParse := (after.TotalAlloc - before.TotalAlloc) / uint64(len(texts))
	if perParse >= 256<<10 {
		t.Fatalf("blif.Parse allocates %d bytes per service-sized circuit, want under 256 KiB", perParse)
	}
	t.Logf("%d circuits, %d bytes allocated per parse", len(texts), perParse)
}
