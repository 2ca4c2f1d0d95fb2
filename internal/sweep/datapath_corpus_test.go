package sweep

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simgen/internal/blif"
	"simgen/internal/genbench"
	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/sim"
)

var updateDatapath = flag.Bool("update-datapath", false,
	"regenerate testdata/datapath from the genbench twin builders")

// datapathCorpus lists the committed golden CEC pairs (<name>_a.blif vs
// <name>_b.blif, all equivalent) plus one mutated pair (mul8x8_a.blif vs
// mul8x8_neq.blif, not equivalent). Each half is built and
// technology-mapped on its own, so the pairs carry no shared structure —
// the multiplier pairs are the hard instances (BenchmarkDatapathCEC loads
// them from this corpus).
var datapathCorpus = []string{
	"mul8x8", "mul10x10", "mulbooth8", "add16csel", "bshift8", "alu8red", "cmp16",
}

func datapathDir(t *testing.T) string {
	t.Helper()
	return filepath.Join("..", "..", "testdata", "datapath")
}

func writeCorpusBLIF(t *testing.T, dir, name string, net *network.Network) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("creating %s: %v", name, err)
	}
	defer f.Close()
	if err := blif.Write(f, net); err != nil {
		t.Fatalf("writing %s: %v", name, err)
	}
}

func readCorpusBLIF(t *testing.T, dir, name string) *network.Network {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("opening %s (regenerate with -update-datapath): %v", name, err)
	}
	defer f.Close()
	net, err := blif.Parse(f)
	if err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
	return net
}

// mutateHalf flips the minterm of the last PO's driver LUT that the
// all-zero input vector selects, so the mutated half provably differs from
// the original on a known, reachable input — the corpus NEQ pair can never
// be observationally masked.
func mutateHalf(t *testing.T, net *network.Network) *network.Network {
	t.Helper()
	out := net.Clone()
	po := out.POs()[out.NumPOs()-1]
	drv := out.Node(po.Driver)
	if drv.Kind != network.KindLUT {
		t.Fatalf("last PO %q is not LUT-driven", po.Name)
	}
	vals := sim.SimulateVector(out, make([]bool, out.NumPIs()))
	m := 0
	for i, f := range drv.Fanins {
		if vals[f] {
			m |= 1 << uint(i)
		}
	}
	fn := drv.Func.Clone()
	fn.SetBit(m, !fn.Bit(m))
	drv.Func = fn
	out.Invalidate()
	out.Name += "_neq"
	return out
}

// maxMul10Conflicts bounds the SAT conflicts of the mul10x10 pair's CEC.
// Swept shallowest pair first, the portfolio proves the partial-product
// and adder-row equalities before the wide output miters, which then
// collapse by propagation: 27,549 conflicts on a 2-vCPU Xeon, against
// 486,399 when the same sweep drained its classes largest first. The
// bound counts solver work, not time, so it holds on any host.
const maxMul10Conflicts = 100_000

// TestDatapathCorpusReplay replays the golden datapath corpus through CEC
// on the bit-level portfolio: every committed EQ pair must prove
// EQUIVALENT, mul10x10 within maxMul10Conflicts SAT conflicts, and the
// mutated multiplier pair must come back NOT EQUIVALENT with a
// counterexample that separates the original circuits.
// `go test ./internal/sweep -run DatapathCorpus -update-datapath`
// regenerates the corpus from the genbench builders.
func TestDatapathCorpusReplay(t *testing.T) {
	dir := datapathDir(t)
	if *updateDatapath {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range datapathCorpus {
			a, b, err := genbench.SplitTwin(name)
			if err != nil {
				t.Fatalf("splitting %s: %v", name, err)
			}
			writeCorpusBLIF(t, dir, name+"_a.blif", a)
			writeCorpusBLIF(t, dir, name+"_b.blif", b)
			if name == "mul8x8" {
				writeCorpusBLIF(t, dir, name+"_neq.blif", mutateHalf(t, b))
			}
		}
	}

	opts := CECOptions{
		Seed:  1,
		Sweep: Options{Engine: EnginePortfolio},
	}
	for _, name := range datapathCorpus {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && strings.HasPrefix(name, "mul") {
				t.Skip("multiplier pairs are the slow half of the corpus")
			}
			a := readCorpusBLIF(t, dir, name+"_a.blif")
			b := readCorpusBLIF(t, dir, name+"_b.blif")
			col := obs.NewCollector()
			o := opts
			o.Sweep.Tracer = col
			res, err := CEC(a, b, o)
			if err != nil {
				t.Fatalf("CEC failed: %v", err)
			}
			if !res.Equivalent || res.Undecided {
				t.Fatalf("golden EQ pair: eq=%v undecided=%v (po %s%s)",
					res.Equivalent, res.Undecided, res.FailedPO, res.UndecidedPO)
			}
			var conflicts int64
			for _, e := range col.Report().Engines {
				conflicts += e.Conflicts
			}
			t.Logf("%d SAT calls, %d conflicts", res.Sweep.SATCalls+res.POCalls, conflicts)
			if name == "mul10x10" && conflicts > maxMul10Conflicts {
				t.Errorf("CEC spent %d SAT conflicts, want at most %d: the sweep no longer proves bottom-up",
					conflicts, maxMul10Conflicts)
			}
		})
	}

	t.Run("mul8x8-neq", func(t *testing.T) {
		if testing.Short() {
			t.Skip("multiplier pairs are the slow half of the corpus")
		}
		a := readCorpusBLIF(t, dir, "mul8x8_a.blif")
		neq := readCorpusBLIF(t, dir, "mul8x8_neq.blif")
		res, err := CEC(a, neq, opts)
		if err != nil {
			t.Fatalf("CEC failed: %v", err)
		}
		if res.Equivalent || res.Undecided {
			t.Fatalf("golden NEQ pair: eq=%v undecided=%v", res.Equivalent, res.Undecided)
		}
		if ok, po := VerifyCounterexample(a, neq, res.Counterexample); !ok {
			t.Fatalf("counterexample does not separate the pair (po %s)", po)
		}
	})
}
