package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	got := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		got = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("sweep %v: %v", args, err)
	}
	if got != code {
		t.Fatalf("sweep %v: exit %d, want %d\n%s%s", args, got, code, stdout.Bytes(), stderr.Bytes())
	}
	return stdout.Bytes()
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
// with the word stage, a cold then warm proof cache, and CEC.
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
// another.
func TestNegativeLadderFlags(t *testing.T) {
	bin := buildSweep(t)
	for _, args := range [][]string{
		{"-max-escalations", "-1"},
		{"-bdd-nodes", "-1"},
		{"-conflict-budget", "-5"},
		{"-propagation-budget", "-1"},
		{"-iterations", "-1"},
		{"-random-rounds", "-1"},
	} {
		runBin(t, bin, 2, append([]string{"-benchmark", "alu4"}, args...)...)
	}
}
