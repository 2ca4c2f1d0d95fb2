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

// TestDumpPatternsFailures builds the command and checks both ways
// -dump-patterns can fail: an uncreatable path is a usage error before any
// generation runs, and a failed write exits 1. Either way the exit path
// still writes the -report file.
func TestDumpPatternsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/simgen")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "simgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/simgen: %v\n%s", err, out)
	}
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
