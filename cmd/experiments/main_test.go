package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildExperiments compiles the command into a temporary directory.
func buildExperiments(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds cmd/experiments")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	return bin
}

// runExperiments runs the binary and returns its exit code, stdout and
// stderr.
func runExperiments(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatalf("experiments %v: %v", args, err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestUsageErrors checks that an unknown experiment or benchmark name, a
// -benchmarks list that leaves a scaled experiment no circuit and a
// negative iteration count exit 2 before any experiment runs, with the
// command's prefix once. The unknown experiment follows a valid one, which
// must not run first.
func TestUsageErrors(t *testing.T) {
	bin := buildExperiments(t)
	noScaled := ": -benchmarks names no scaled circuit (want one of alu4,square,arbiter,b15_C2,b17_C,b17_C2,b20_C2,b21_C2,b22_C)\n"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-benchmarks", "alu4", "table1", "nope"},
			"experiments: unknown experiment \"nope\" (want table1|table2|table2big|fig5|fig6|fig7|ablation|attribution|all)\n"},
		{[]string{"-iterations", "-1", "table1"}, "experiments: -iterations must be >= 0, got -1\n"},
		{[]string{"-fig7-iterations", "-1", "fig7"}, "experiments: -fig7-iterations must be >= 0, got -1\n"},
		{[]string{"-benchmarks", "nope", "table1"}, "experiments: unknown benchmark \"nope\"\n"},
		{[]string{"-benchmarks", "pdc", "table2big"}, "experiments: table2big" + noScaled},
		{[]string{"-benchmarks", "pdc", "table1", "fig6"}, "experiments: fig6" + noScaled},
		{[]string{"-benchmarks", "pdc,apex2", "all"}, "experiments: all" + noScaled},
	} {
		code, stdout, stderr := runExperiments(t, bin, c.args...)
		if code != 2 || stderr != c.want || stdout != "" {
			t.Errorf("experiments %v: exit %d, stderr %q, stdout %q; want exit 2, stderr %q and no output",
				c.args, code, stderr, stdout, c.want)
		}
	}
}

// TestBenchmarksRestrictEveryExperiment checks that -benchmarks restricts
// the experiments with circuit sets of their own: fig7 traces the listed
// circuits instead of apex2 and cps, and fig6 runs only the scaled
// circuits built from listed ones.
func TestBenchmarksRestrictEveryExperiment(t *testing.T) {
	bin := buildExperiments(t)
	code, stdout, stderr := runExperiments(t, bin, "-benchmarks", "alu4", "-fig7-iterations", "1", "fig7")
	if code != 0 || !strings.Contains(stdout, "== Figure 7: alu4 ==") ||
		strings.Contains(stdout, "apex2") || strings.Contains(stdout, "cps") {
		t.Errorf("fig7: exit %d, want 0 and a trace of alu4 alone\n%s%s", code, stdout, stderr)
	}
	code, stdout, stderr = runExperiments(t, bin, "-benchmarks", "pdc,alu4", "-iterations", "1", "fig6")
	if code != 0 || !strings.Contains(stdout, "alu4 (15)") || strings.Count(stdout, "\n") != 3 {
		t.Errorf("fig6: exit %d, want 0 and one row, alu4 (15)\n%s%s", code, stdout, stderr)
	}
}
