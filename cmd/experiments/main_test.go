package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
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

// TestUsageErrors checks that an unknown experiment or benchmark name and a
// negative iteration count exit 2 before any experiment runs, with the
// command's prefix once. The unknown experiment follows a valid one, which
// must not run first.
func TestUsageErrors(t *testing.T) {
	bin := buildExperiments(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-benchmarks", "alu4", "table1", "nope"},
			"experiments: unknown experiment \"nope\" (want table1|table2|table2big|fig5|fig6|fig7|ablation|attribution|all)\n"},
		{[]string{"-iterations", "-1", "table1"}, "experiments: -iterations must be >= 0, got -1\n"},
		{[]string{"-fig7-iterations", "-1", "fig7"}, "experiments: -fig7-iterations must be >= 0, got -1\n"},
		{[]string{"-benchmarks", "nope", "table1"}, "experiments: unknown benchmark \"nope\"\n"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("experiments %v: %v", c.args, err)
		}
		if code != 2 || stderr.String() != c.want || stdout.Len() != 0 {
			t.Errorf("experiments %v: exit %d, stderr %q, stdout %q; want exit 2, stderr %q and no output",
				c.args, code, stderr.String(), stdout.String(), c.want)
		}
	}
}
