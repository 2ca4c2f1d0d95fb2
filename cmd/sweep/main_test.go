package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"simgen/internal/aig"
	"simgen/internal/aiger"
	"simgen/internal/blif"
	"simgen/internal/fuzz"
	"simgen/internal/genbench"
	"simgen/internal/load"
	"simgen/internal/network"
	"simgen/internal/pcache"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// buildSweep compiles the command into a temporary directory.
func buildSweep(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds cmd/sweep")
	}
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/sweep: %v\n%s", err, out)
	}
	return bin
}

// runBin runs the binary and returns its stdout, failing the test unless
// it exits with code.
func runBin(t *testing.T, bin string, code int, args ...string) []byte {
	t.Helper()
	stdout, _ := runBoth(t, bin, code, args...)
	return stdout
}

// runBoth is runBin returning the standard error too.
func runBoth(t *testing.T, bin string, code int, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var outBuf, errBuf bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	got := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		got = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("sweep %v: %v", args, err)
	}
	if got != code {
		t.Fatalf("sweep %v: exit %d, want %d\n%s%s", args, got, code, outBuf.Bytes(), errBuf.Bytes())
	}
	return outBuf.Bytes(), errBuf.Bytes()
}

var (
	durationRe = regexp.MustCompile(`time=[0-9.]+[a-zµ]*s`)
	wallRe     = regexp.MustCompile(`,"(t_ns|dur_ns)":[0-9]+`)
)

func datapath(name string) string {
	return filepath.Join("..", "..", "testdata", "datapath", name+".blif")
}

// TestGolden pins what the command prints and traces on fixed seeds: stdout
// with durations masked, and the -trace stream without its wall-clock
// fields. The runs cover sweep mode with each guided method, the portfolio
// with the word stage, a cold then warm proof cache, CEC, and a network
// narrow enough to enumerate (square, 10 inputs).
//
// Regenerate with: go test ./cmd/sweep -run TestGolden -update
func TestGolden(t *testing.T) {
	bin := buildSweep(t)
	cache := filepath.Join(t.TempDir(), "cache")
	cases := []struct {
		name string
		code int
		args []string
	}{
		{"alu4", 0, []string{"-benchmark", "alu4", "-conflict-budget", "1000"}},
		{"pdc", 0, []string{"-benchmark", "pdc", "-conflict-budget", "1000"}},
		{"apex2_revs", 0, []string{"-benchmark", "apex2", "-method", "revs"}},
		{"pdc_none", 0, []string{"-benchmark", "pdc", "-method", "none"}},
		{"pdc_portfolio_word", 0, []string{"-benchmark", "pdc", "-engine", "portfolio", "-word"}},
		// The warm run replays the cold run's patterns and settles every
		// pair from its proofs, so the two must run in this order.
		{"pdc_cache_cold", 0, []string{"-benchmark", "pdc", "-cache-dir", cache}},
		{"pdc_cache_warm", 0, []string{"-benchmark", "pdc", "-cache-dir", cache}},
		{"cec_cmp16", 0, []string{datapath("cmp16_a"), datapath("cmp16_b")}},
		{"cec_mul8x8_neq", 1, []string{"-engine", "portfolio", "-word",
			datapath("mul8x8_a"), datapath("mul8x8_neq")}},
		{"square_enumerated", 0, []string{"-benchmark", "square"}},
	}
	for _, c := range cases {
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		args := append([]string{"-trace", trace}, c.args...)
		stdout := runBin(t, bin, c.code, args...)
		jsonl, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.name+".out", durationRe.ReplaceAll(stdout, []byte("time=X")))
		checkGolden(t, c.name+".jsonl", wallRe.ReplaceAll(jsonl, nil))
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("%s differs from golden at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
				return
			}
		}
		t.Errorf("%s: got %d lines, golden has %d", path, len(gl), len(wl))
	}
}

// TestCECRandomRounds checks that CEC honours -random-rounds: the default
// (0) seeds the classes with two rounds, and one round leaves fewer
// candidate pairs for the sweep to disprove on cmp16.
func TestCECRandomRounds(t *testing.T) {
	bin := buildSweep(t)
	for _, c := range []struct {
		rounds []string
		calls  string
	}{
		{nil, "calls=22 "},
		{[]string{"-random-rounds", "2"}, "calls=22 "},
		{[]string{"-random-rounds", "1"}, "calls=19 "},
	} {
		args := append(append([]string{"-method", "none"}, c.rounds...), datapath("cmp16_a"), datapath("cmp16_b"))
		if out := runBin(t, bin, 0, args...); !bytes.Contains(out, []byte("sweep: "+c.calls)) {
			t.Errorf("sweep %v: want %q in\n%s", args, c.calls, out)
		}
	}
}

// TestEngineBDD checks that -engine bdd runs on the one Sweeper, printing
// the common result line, and that -method takes every name of the
// method table.
func TestEngineBDD(t *testing.T) {
	bin := buildSweep(t)
	out := runBin(t, bin, 0, "-benchmark", "alu4", "-engine", "bdd", "-method", "rands")
	if !regexp.MustCompile(`(?m)^bdd sweeping: calls=0 .* bddchecks=[1-9]`).Match(out) {
		t.Errorf("no BDD sweep line in\n%s", out)
	}
	runBin(t, bin, 2, "-benchmark", "alu4", "-method", "bogus")
}

// TestNegativeLadderFlags checks that a negative escalation count, BDD
// node limit, budget, iteration count or random round count is a usage
// error, not a run that resolves nothing or quietly reads the value as
// another, and that its message carries the command's prefix once.
func TestNegativeLadderFlags(t *testing.T) {
	bin := buildSweep(t)
	for _, c := range []struct{ flag, val, setting string }{
		{"-max-escalations", "-1", "escalation rungs"},
		{"-bdd-nodes", "-1", "BDD node limit"},
		{"-conflict-budget", "-5", "conflict budget"},
		{"-propagation-budget", "-1", "propagation budget"},
		{"-iterations", "-1", "iterations"},
		{"-random-rounds", "-1", "random rounds"},
	} {
		_, stderr := runBoth(t, bin, 2, "-benchmark", "alu4", c.flag, c.val)
		if want := "sweep: " + c.setting + " must be >= 0, got " + c.val + "\n"; string(stderr) != want {
			t.Errorf("%s %s: stderr %q, want %q", c.flag, c.val, stderr, want)
		}
	}
	_, stderr := runBoth(t, bin, 2, "-benchmark", "alu4", "-engine", "bogus")
	if want := "sweep: unknown engine \"bogus\" (want sat|bdd|portfolio|word)\n"; string(stderr) != want {
		t.Errorf("-engine bogus: stderr %q, want %q", stderr, want)
	}
}

// TestCircuitFormats checks that the command reads every circuit format by
// extension: a genbench circuit written as .bench and as ASCII AIGER checks
// EQUIVALENT against itself, and each sweeps on its own.
func TestCircuitFormats(t *testing.T) {
	bin := buildSweep(t)
	b, _ := genbench.ByName("arbiter")
	g := b.Build()
	dir := t.TempDir()
	benchPath, aagPath := filepath.Join(dir, "arbiter.bench"), filepath.Join(dir, "arbiter.aag")
	var aag bytes.Buffer
	if err := aiger.Write(&aag, g, false); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(aagPath, aag.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchPath, []byte(benchText(g)), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runBin(t, bin, 0, benchPath, aagPath); !bytes.Contains(out, []byte("\nEQUIVALENT\n")) {
		t.Errorf("CEC .bench vs .aag: no EQUIVALENT in\n%s", out)
	}
	for _, path := range []string{benchPath, aagPath} {
		runBin(t, bin, 0, "-iterations", "2", path)
	}
	vPath := filepath.Join(dir, "arbiter.v")
	if err := os.WriteFile(vPath, []byte("module arbiter;\nendmodule\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr := runBoth(t, bin, 2, vPath)
	if want := "sweep: unsupported circuit extension \".v\" (want .blif, .bench, .aag or .aig)\n"; string(stderr) != want {
		t.Errorf(".v: stderr %q, want %q", stderr, want)
	}
}

// TestLoadErrors checks that a circuit that cannot be loaded, whether
// swept, compared or given as -base, -base without -cache-dir,
// -benchmark together with circuit file arguments (which would go unread),
// -reduce, -cache-dir or -base with two circuits (a CEC, which uses none of
// them) and a -reduce file that cannot be created are usage errors (exit
// 2, as in cmd/simgen), with the command's prefix once, before any work:
// nothing on stdout, no reduced network or cache left behind, and an
// existing -reduce file left as it was.
func TestLoadErrors(t *testing.T) {
	bin := buildSweep(t)
	dir := t.TempDir()
	vPath := filepath.Join(dir, "a.v")
	if err := os.WriteFile(vPath, []byte("module a;\nendmodule\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	unsupported := "sweep: unsupported circuit extension \".v\" (want .blif, .bench, .aag or .aig)\n"
	benchAndFile := "sweep: -benchmark takes no circuit file argument\n"
	cecFlag := func(name string) string {
		return "sweep: " + name + " applies to a sweep, not to the CEC of two circuits\n"
	}
	reduced, cache := filepath.Join(dir, "reduced.blif"), filepath.Join(dir, "cec-cache")
	missing := filepath.Join(dir, "missing", "x.blif")
	cmpA, cmpB := datapath("cmp16_a"), datapath("cmp16_b")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-benchmark", "nope"}, "sweep: unknown benchmark \"nope\"\n"},
		{[]string{"-benchmark", "alu4", "-base", "x.blif"}, "sweep: -base requires -cache-dir\n"},
		{[]string{"-benchmark", "alu4", "-cache-dir", filepath.Join(dir, "cache"), "-base", vPath}, unsupported},
		{[]string{datapath("cmp16_a"), vPath}, unsupported},
		{[]string{"-benchmark", "alu4", "nope.blif"}, benchAndFile},
		{[]string{"-benchmark", "alu4", "nope1.blif", "nope2.blif"}, benchAndFile},
		{[]string{"-reduce", reduced, cmpA, cmpB}, cecFlag("-reduce")},
		{[]string{"-cache-dir", cache, cmpA, cmpB}, cecFlag("-cache-dir")},
		{[]string{"-cache-dir", cache, "-base", cmpA, cmpA, cmpB}, cecFlag("-cache-dir")},
		{[]string{"-base", cmpA, cmpA, cmpB}, cecFlag("-base")},
		{[]string{"-benchmark", "voter", "-reduce", missing}, "sweep: open " + missing + ": no such file or directory\n"},
	} {
		stdout, stderr := runBoth(t, bin, 2, c.args...)
		if string(stderr) != c.want || len(stdout) != 0 {
			t.Errorf("sweep %v: stderr %q, stdout %q; want stderr %q and no output", c.args, stderr, stdout, c.want)
		}
	}
	for _, path := range []string{reduced, cache} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("a rejected CEC left %s behind (stat error %v)", path, err)
		}
	}

	// A sweep whose circuit does not load leaves an existing -reduce file
	// as it was and removes one it created.
	prev := []byte("# previous reduced network\n")
	if err := os.WriteFile(reduced, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.blif")
	for _, out := range []string{reduced, fresh} {
		runBoth(t, bin, 2, "-reduce", out, filepath.Join(dir, "nope.blif"))
	}
	if got, err := os.ReadFile(reduced); err != nil || !bytes.Equal(got, prev) {
		t.Errorf("failed load changed the existing -reduce file: %q (error %v)", got, err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("failed load left %s behind (stat error %v)", fresh, err)
	}
}

// TestIncrementalRun drives an incremental re-sweep through the command: a
// cold -cache-dir sweep of a base circuit, then -base base.blif on an edit
// that flips one truth-table bit in each of four LUTs. The second run must
// succeed, report as many changed cones as pcache.Diff finds between the
// two files, and reduce the edit to an equivalent network.
func TestIncrementalRun(t *testing.T) {
	bin := buildSweep(t)
	b, _ := genbench.ByName("log2") // 16 inputs: swept, not enumerated, and still exhaustively checkable
	base, err := b.LUTNetwork()
	if err != nil {
		t.Fatal(err)
	}
	edit := base.Clone()
	rng := rand.New(rand.NewSource(1))
	var luts []network.NodeID
	for id := range edit.NumNodes() {
		if edit.Node(network.NodeID(id)).Kind == network.KindLUT {
			luts = append(luts, network.NodeID(id))
		}
	}
	for range 4 {
		nd := edit.Node(luts[rng.Intn(len(luts))])
		fn := nd.Func.Clone()
		m := rng.Intn(fn.NumMinterms())
		fn.SetBit(m, !fn.Bit(m))
		nd.Func = fn
	}
	edit.Invalidate()

	dir := t.TempDir()
	basePath, editPath := filepath.Join(dir, "base.blif"), filepath.Join(dir, "edit.blif")
	for path, net := range map[string]*network.Network{basePath: base, editPath: edit} {
		var buf bytes.Buffer
		if err := blif.Write(&buf, net); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cache, reduced := filepath.Join(dir, "cache"), filepath.Join(dir, "reduced.blif")
	runBin(t, bin, 0, "-cache-dir", cache, basePath)
	out := runBin(t, bin, 0, "-cache-dir", cache, "-base", basePath, "-reduce", reduced, editPath)

	baseNet, err := load.File(basePath)
	if err != nil {
		t.Fatal(err)
	}
	editNet, err := load.File(editPath)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^incremental: ([0-9]+) changed cones,`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no incremental line in\n%s", out)
	}
	want := len(pcache.Diff(baseNet, editNet))
	if got, _ := strconv.Atoi(string(m[1])); got != want || want == 0 {
		t.Errorf("incremental run reports %d changed cones, pcache.Diff finds %d", got, want)
	}

	redNet, err := load.File(reduced)
	if err != nil {
		t.Fatal(err)
	}
	if redNet.NumPIs() != editNet.NumPIs() || redNet.NumPOs() != editNet.NumPOs() {
		t.Fatalf("reduced network has %d inputs and %d outputs, the edit %d and %d",
			redNet.NumPIs(), redNet.NumPOs(), editNet.NumPIs(), editNet.NumPOs())
	}
	for i, pi := range editNet.PIs() {
		if got := redNet.Node(redNet.PIs()[i]).Name; got != editNet.Node(pi).Name {
			t.Fatalf("reduced input %d is %q, the edit's is %q", i, got, editNet.Node(pi).Name)
		}
	}
	rt, et := fuzz.NodeTables(redNet), fuzz.NodeTables(editNet)
	for i, po := range editNet.POs() {
		rpo := redNet.POs()[i]
		if rpo.Name != po.Name || !rt[rpo.Driver].Equal(et[po.Driver]) {
			t.Errorf("reduced output %d (%s) differs from the edit's (%s)", i, rpo.Name, po.Name)
		}
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
