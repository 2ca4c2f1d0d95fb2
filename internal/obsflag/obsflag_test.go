package obsflag

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"simgen/internal/obs"
)

func TestRegisterDefaultsToNop(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	s, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer != obs.Nop {
		t.Error("with no flags set, Tracer should be obs.Nop")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestOpenEmitClose(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		Trace:  filepath.Join(dir, "t.jsonl"),
		Report: filepath.Join(dir, "r.json"),
	}
	s, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	s.Tracer.Emit(obs.Event{Kind: obs.KindSweepStart, Workers: 2})
	s.Tracer.Emit(obs.Event{Kind: obs.KindObligation, Class: 1, A: 2, B: 3, Pending: 1})
	s.Tracer.Emit(obs.Event{Kind: obs.KindResolve, Class: 1, A: 2, B: 3,
		Verdict: obs.VerdictEqual, Dur: time.Millisecond})
	s.Tracer.Emit(obs.Event{Kind: obs.KindSweepDone, Cost: 5})

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	trace, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(splitLines(trace)); n != 4 {
		t.Errorf("trace has %d lines, want 4", n)
	}
	raw, err := os.ReadFile(f.Report)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report file is not a Report: %v", err)
	}
	if rep.FinalCost != 5 {
		t.Errorf("report final cost %d, want 5", rep.FinalCost)
	}
	if rep.Obligations.Scheduled != 1 || rep.Obligations.Equal != 1 {
		t.Errorf("report obligations wrong: %+v", rep.Obligations)
	}
}

// TestOpenFailsFastOnBadPaths: unwritable -trace or -report paths must fail
// at Open (a usage error before the run), not after the sweep finished.
func TestOpenFailsFastOnBadPaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing-dir", "out")
	for _, f := range []*Flags{{Trace: bad}, {Report: bad}} {
		if s, err := f.Open(); err == nil {
			s.Close()
			t.Errorf("Open(%+v) should fail on an unwritable path", *f)
		}
	}
	// A failed later stage must clean up earlier ones: trace file created,
	// then the metrics listener fails.
	f := &Flags{
		Trace:       filepath.Join(t.TempDir(), "t.jsonl"),
		MetricsAddr: "999.999.999.999:0",
	}
	if s, err := f.Open(); err == nil {
		s.Close()
		t.Error("Open should fail on an unlistenable metrics address")
	}
}

func splitLines(b []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, c := range b {
		if c == '\n' {
			lines = append(lines, b[start:i])
			start = i + 1
		}
	}
	if start < len(b) {
		lines = append(lines, b[start:])
	}
	return lines
}
