package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"simgen"
	"simgen/internal/aiger"
	"simgen/internal/genbench"
)

// buildSimgen compiles the command into a temporary directory.
func buildSimgen(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds cmd/simgen")
	}
	bin := filepath.Join(t.TempDir(), "simgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/simgen: %v\n%s", err, out)
	}
	return bin
}

// exitCode runs the binary and returns its exit code and combined output.
func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatalf("simgen %v: %v", args, err)
	}
	return 0, string(out)
}

// TestFinalSweepExitCodes checks the final sweep's two failure paths: an
// unknown -engine is a usage error before any generation runs, and a
// deadline that cuts the sweep short exits 3 like a cut generation run.
func TestFinalSweepExitCodes(t *testing.T) {
	bin := buildSimgen(t)
	code, out := exitCode(t, bin, "-benchmark", "alu4", "-engine", "bogus", "-iterations", "3")
	if want := "simgen: unknown engine \"bogus\" (want sat|bdd|portfolio)\n"; code != 2 || out != want {
		t.Errorf("unknown engine: exit %d, want 2 before generation with %q\n%s", code, want, out)
	}
	code, out = exitCode(t, bin, "-benchmark", "voter", "-iterations", "0", "-engine", "sat", "-timeout", "200ms")
	if code != 3 || !strings.Contains(out, "(timed out)") {
		t.Errorf("deadline in the final sweep: exit %d, want 3\n%s", code, out)
	}
}

// TestNegativeFlowFlags checks that a negative iteration or random round
// count, or a batch below 1 (which would generate no vector and stop as if
// the cost were flat), is a usage error before any generation runs, not a
// panic (which also exits 2) or a run that reads it as another value. The
// message carries the command's prefix once.
func TestNegativeFlowFlags(t *testing.T) {
	bin := buildSimgen(t)
	for _, c := range []struct{ flag, val, want string }{
		{"-iterations", "-1", "iterations must be >= 0, got -1"},
		{"-random-rounds", "-1", "random rounds must be >= 0, got -1"},
		{"-batch", "0", "-batch must be >= 1, got 0"},
		{"-batch", "-1", "-batch must be >= 1, got -1"},
	} {
		code, out := exitCode(t, bin, "-benchmark", "alu4", c.flag, c.val)
		if want := "simgen: " + c.want + "\n"; code != 2 || out != want {
			t.Errorf("%s %s: exit %d, want 2 with %q\n%s", c.flag, c.val, code, want, out)
		}
	}
}

// TestBenchmarkWithCircuitFile checks that -benchmark together with a
// circuit file argument, which would go unread, is a usage error before
// any generation runs.
func TestBenchmarkWithCircuitFile(t *testing.T) {
	bin := buildSimgen(t)
	code, out := exitCode(t, bin, "-benchmark", "alu4", "-iterations", "1", "nope.blif")
	if want := "simgen: -benchmark takes no circuit file argument\n"; code != 2 || out != want {
		t.Errorf("exit %d, want 2 with %q\n%s", code, want, out)
	}
}

// TestCircuitFormats checks that the command reads circuit files by
// extension: a genbench circuit written as ASCII and binary AIGER runs, and
// an unknown extension is a usage error.
func TestCircuitFormats(t *testing.T) {
	bin := buildSimgen(t)
	b, _ := genbench.ByName("arbiter")
	g := b.Build()
	dir := t.TempDir()
	for _, c := range []struct {
		name   string
		binary bool
	}{{"arbiter.aag", false}, {"arbiter.aig", true}} {
		var buf bytes.Buffer
		if err := aiger.Write(&buf, g, c.binary); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, out := exitCode(t, bin, "-iterations", "2", path); code != 0 || !strings.Contains(out, "final cost:") {
			t.Errorf("%s: exit %d\n%s", c.name, code, out)
		}
	}
	vPath := filepath.Join(dir, "arbiter.v")
	if err := os.WriteFile(vPath, []byte("module arbiter;\nendmodule\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := exitCode(t, bin, vPath)
	if want := "simgen: unsupported circuit extension \".v\" (want .blif, .bench, .aag or .aig)\n"; code != 2 || out != want {
		t.Errorf(".v: exit %d, want 2 with %q\n%s", code, want, out)
	}
}

// TestDumpPatternsFailures builds the command and checks both ways
// -dump-patterns can fail: an uncreatable path is a usage error before any
// generation runs, and a failed write exits 1. Either way the exit path
// still writes the -report file.
func TestDumpPatternsFailures(t *testing.T) {
	bin := buildSimgen(t)
	dir := t.TempDir()
	// alu4 generates no vectors in 3 iterations; log2 does, so its write
	// reaches the device.
	cases := []struct {
		name, bench, dump string
		code              int
	}{
		{"missing-dir", "alu4", filepath.Join(dir, "missing", "p.txt"), 2},
		{"write-error", "log2", "/dev/full", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.dump == "/dev/full" {
				if _, err := os.Stat(c.dump); err != nil {
					t.Skip("no /dev/full on this system")
				}
			}
			report := filepath.Join(t.TempDir(), "r.json")
			out, err := exec.Command(bin, "-benchmark", c.bench, "-iterations", "3",
				"-report", report, "-dump-patterns", c.dump).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != c.code {
				t.Fatalf("exit %v, want code %d\n%s", err, c.code, out)
			}
			if ran := strings.Contains(string(out), "guided:"); ran != (c.code == 1) {
				t.Errorf("generation ran = %v, want %v\n%s", ran, c.code == 1, out)
			}
			raw, err := os.ReadFile(report)
			if err != nil {
				t.Fatal(err)
			}
			var rep simgen.RunReport
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatalf("-report file is not a report: %v\n%q", err, raw)
			}
		})
	}
}
