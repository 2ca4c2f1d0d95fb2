package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"simgen"
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
	if code != 2 || strings.Contains(out, "iter ") {
		t.Errorf("unknown engine: exit %d, want 2 before generation\n%s", code, out)
	}
	code, out = exitCode(t, bin, "-benchmark", "voter", "-iterations", "0", "-engine", "sat", "-timeout", "200ms")
	if code != 3 || !strings.Contains(out, "(timed out)") {
		t.Errorf("deadline in the final sweep: exit %d, want 3\n%s", code, out)
	}
}

// TestNegativeFlowFlags checks that a negative iteration or random round
// count is a usage error before any generation runs, not a panic (which
// also exits 2) or a run that reads it as another value.
func TestNegativeFlowFlags(t *testing.T) {
	bin := buildSimgen(t)
	for _, flag := range []string{"-iterations", "-random-rounds"} {
		code, out := exitCode(t, bin, "-benchmark", "alu4", flag, "-1")
		if code != 2 || strings.Contains(out, "panic:") || strings.Contains(out, "iter ") {
			t.Errorf("%s -1: exit %d, want 2 without a panic or generation\n%s", flag, code, out)
		}
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
