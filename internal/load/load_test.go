package load

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"simgen/internal/aiger"
	"simgen/internal/blif"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/sim"
)

// TestFileFormats writes one genbench circuit in every format File reads,
// extensions in either case, and checks each file loads to a network that
// computes the circuit's outputs.
func TestFileFormats(t *testing.T) {
	b, _ := genbench.ByName("arbiter")
	g := b.Build()
	mapped, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, emit func(*bytes.Buffer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	paths := []string{
		write("a.blif", func(w *bytes.Buffer) error { return blif.Write(w, mapped) }),
		write("a.BLIF", func(w *bytes.Buffer) error { return blif.Write(w, mapped) }),
		write("a.aag", func(w *bytes.Buffer) error { return aiger.Write(w, g, false) }),
		write("a.aig", func(w *bytes.Buffer) error { return aiger.Write(w, g, true) }),
	}
	rng := rand.New(rand.NewSource(1))
	for _, path := range paths {
		net, err := File(path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if net.NumPIs() != g.NumPIs() || net.NumPOs() != len(g.POs()) {
			t.Fatalf("%s: %d PIs / %d POs, want %d / %d", filepath.Base(path),
				net.NumPIs(), net.NumPOs(), g.NumPIs(), len(g.POs()))
		}
		for trial := 0; trial < 64; trial++ {
			vec := g.RandomVector(rng)
			if got, want := outputs(net, vec), g.EvalVector(vec); !slices.Equal(got, want) {
				t.Fatalf("%s: outputs %v, want %v on %v", filepath.Base(path), got, want, vec)
			}
		}
	}

	bench := write("and.bench", func(w *bytes.Buffer) error {
		_, err := w.WriteString("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
		return err
	})
	net, err := File(bench)
	if err != nil || net.NumPIs() != 2 || net.NumPOs() != 1 {
		t.Fatalf("and.bench: %v", err)
	}
	if got := outputs(net, []bool{true, true}); !got[0] {
		t.Fatal("and.bench: y(1,1) = 0")
	}
}

// TestFileRejects checks that a file with an unsupported extension, or
// none, is an error naming the extension, and a missing file reports the
// open error.
func TestFileRejects(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.v", "a"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(".model a\n.end\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unsupported circuit extension %q", filepath.Ext(name))
		if _, err := File(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want %q", name, err, want)
		}
	}
	if _, err := File(filepath.Join(dir, "missing.blif")); !os.IsNotExist(err) {
		t.Errorf("missing.blif: err %v, want not-exist", err)
	}
}

// TestBenchmark checks the lookup order: the paper suite, then the
// datapath family, else an error naming the benchmark.
func TestBenchmark(t *testing.T) {
	for _, name := range []string{"alu4", "mul8x8"} {
		if net, err := Benchmark(name); err != nil || net.NumPOs() == 0 {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Benchmark("nope"); err == nil || err.Error() != `unknown benchmark "nope"` {
		t.Errorf("nope: err %v", err)
	}
}

func outputs(net *network.Network, vec []bool) []bool {
	vals := sim.SimulateVector(net, vec)
	out := make([]bool, net.NumPOs())
	for i, po := range net.POs() {
		out[i] = vals[po.Driver]
	}
	return out
}
