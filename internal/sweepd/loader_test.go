package sweepd

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simgen/internal/aig"
	"simgen/internal/aiger"
	"simgen/internal/genbench"
)

// TestJobCircuitSources runs jobs on the sources the shared loader
// resolves: a CEC job between one genbench circuit written as .bench and as
// ASCII AIGER under the data root, a sweep of the datapath benchmark
// mul8x8 by name, and a path that the data root confines.
func TestJobCircuitSources(t *testing.T) {
	b, _ := genbench.ByName("arbiter")
	g := b.Build()
	dir := t.TempDir()
	var aag bytes.Buffer
	if err := aiger.Write(&aag, g, false); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"arbiter.aag":   aag.Bytes(),
		"arbiter.bench": []byte(benchText(g)),
		"arbiter.v":     []byte("module arbiter;\nendmodule\n"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DataDir: dir})
	run := func(spec JobSpec) JobView {
		t.Helper()
		view, code, _ := postSpec(t, hs.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %+v: HTTP %d", spec.Circuit, code)
		}
		return waitJob(t, hs.URL, view.ID)
	}

	v := run(JobSpec{Kind: KindCEC, Circuit: CircuitRef{Path: "arbiter.bench"}, CircuitB: CircuitRef{Path: "/../arbiter.aag"}})
	if v.Status != StatusDone || v.Result == nil || !v.Result.Equivalent {
		t.Errorf(".bench vs .aag: status %s (error %q), result %+v", v.Status, v.Error, v.Result)
	}
	v = run(JobSpec{Kind: KindSweep, Circuit: CircuitRef{Benchmark: "mul8x8"}, Iterations: 2})
	if v.Status != StatusDone || v.Result == nil || v.Result.Sweep == nil || v.Result.Sweep.Incomplete {
		t.Errorf("mul8x8: status %s (error %q), result %+v", v.Status, v.Error, v.Result)
	}
	if v = run(JobSpec{Kind: KindSweep, Circuit: CircuitRef{Path: "arbiter.v"}}); v.Status != StatusFailed ||
		!strings.Contains(v.Error, `unsupported circuit extension ".v"`) {
		t.Errorf(".v: status %s (error %q)", v.Status, v.Error)
	}
}

// benchText renders an and-inverter graph as a .bench netlist: an AND gate
// per AIG node, a NOT gate per node for its complement, and node 0 (the
// constant) as the first input AND its complement.
func benchText(g *aig.Graph) string {
	var b strings.Builder
	sig := func(l aig.Lit) string {
		if l.IsNeg() {
			return fmt.Sprintf("n%d_n", l.Node())
		}
		return fmt.Sprintf("n%d", l.Node())
	}
	for i := 0; i < g.NumPIs(); i++ {
		fmt.Fprintf(&b, "INPUT(n%d)\n", i+1)
	}
	for _, po := range g.POs() {
		fmt.Fprintf(&b, "OUTPUT(%s)\n", sig(po.Lit))
	}
	b.WriteString("n0 = AND(n1, n1_n)\n")
	for n := uint32(0); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			f0, f1 := g.Fanins(n)
			fmt.Fprintf(&b, "n%d = AND(%s, %s)\n", n, sig(f0), sig(f1))
		}
		fmt.Fprintf(&b, "n%d_n = NOT(n%d)\n", n, n)
	}
	return b.String()
}
