package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// sampleEvents exercises every kind with representative field values.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindSweepStart, Workers: 2},
		{Kind: KindSimBatch, Iter: 0, Vectors: 3, Cost: 120, Decisions: 40,
			Implications: 200, Backtracks: 1, GenConflicts: 2, Dur: time.Millisecond},
		{Kind: KindObligation, Worker: 1, Class: 4, A: 10, B: 11, Pending: 6},
		{Kind: KindProveStart, Engine: "sat", A: 10, B: 11, Budget: 1000},
		{Kind: KindEscalation, A: 10, B: 11, Rung: 1, Budget: 4000},
		{Kind: KindProveVerdict, Engine: "sat", A: 10, B: 11,
			Verdict: VerdictEqual, Conflicts: 37, Props: 420, Dur: time.Microsecond},
		{Kind: KindBDDBlowup, A: 12, B: 13},
		{Kind: KindWorkerPanic, Worker: 1, Class: 5, A: 12, B: 13},
		{Kind: KindRequeue, Worker: 0, Class: 5, A: 14, B: 15, Retries: 1},
		{Kind: KindPerturb, Worker: 1, Point: "claim", Act: "yield", A: 14, B: 15},
		{Kind: KindResolve, Worker: 1, Class: 4, A: 10, B: 11, Verdict: VerdictEqual},
		{Kind: KindPoolFlush, Lanes: 9, Splits: 4, Dropped: 1, Dur: time.Microsecond},
		{Kind: KindEnumerate, PIs: 10, Merges: 130, Dur: time.Microsecond},
		{Kind: KindSweepDone, Cost: 42, Dur: time.Second},
	}
}

func TestJSONLValidAndDeterministic(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		tr := NewJSONL(&buf)
		tr.Deterministic = true
		for _, ev := range sampleEvents() {
			tr.Emit(ev)
		}
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := emit(), emit()
	if !bytes.Equal(first, second) {
		t.Errorf("deterministic streams differ:\n%s\nvs\n%s", first, second)
	}

	sc := bufio.NewScanner(bytes.NewReader(first))
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if !json.Valid(line) {
			t.Errorf("line %d is not valid JSON: %s", n, line)
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if _, ok := obj["t_ns"]; ok {
			t.Errorf("line %d carries t_ns in deterministic mode: %s", n, line)
		}
		if _, ok := obj["dur_ns"]; ok {
			t.Errorf("line %d carries dur_ns in deterministic mode: %s", n, line)
		}
		if obj["seq"] != float64(n) {
			t.Errorf("line %d has seq %v", n, obj["seq"])
		}
		n++
	}
	if n != len(sampleEvents()) {
		t.Errorf("stream has %d lines, want %d", n, len(sampleEvents()))
	}
}

func TestJSONLTimestamps(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Emit(Event{Kind: KindSweepDone, Cost: 1, Dur: time.Second})
	line := strings.TrimSpace(buf.String())
	if !strings.Contains(line, `"t_ns":`) {
		t.Errorf("non-deterministic stream should carry t_ns: %s", line)
	}
	if !strings.Contains(line, `"dur_ns":1000000000`) {
		t.Errorf("event duration missing: %s", line)
	}
}

func TestJSONLExactEncoding(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindSweepStart, Workers: 2},
			`{"k":"sweep_start","seq":0,"workers":2}`},
		{Event{Kind: KindResolve, Worker: 1, Class: 3, A: 7, B: 9, Verdict: VerdictDiffer},
			`{"k":"resolve","seq":0,"worker":1,"class":3,"a":7,"b":9,"verdict":"differ"}`},
		{Event{Kind: KindProveVerdict, Engine: "sim", A: 7, B: 9, Verdict: VerdictEqual},
			`{"k":"prove_verdict","seq":0,"engine":"sim","a":7,"b":9,"verdict":"equal"}`},
		// Zero-valued optional fields (budget, conflicts, dropped...) are omitted.
		{Event{Kind: KindProveStart, Engine: "sat", A: 1, B: 2},
			`{"k":"prove_start","seq":0,"engine":"sat","a":1,"b":2}`},
		{Event{Kind: KindPoolFlush, Lanes: 5, Splits: 2},
			`{"k":"pool_flush","seq":0,"lanes":5,"splits":2}`},
		// A first claim omits retries; a retry claim carries it.
		{Event{Kind: KindObligation, Worker: 1, Class: 4, A: 10, B: 11, Pending: 6},
			`{"k":"obligation","seq":0,"worker":1,"class":4,"a":10,"b":11,"pending":6}`},
		{Event{Kind: KindObligation, Worker: 1, Class: 4, A: 10, B: 11, Pending: 6, Retries: 2},
			`{"k":"obligation","seq":0,"worker":1,"class":4,"a":10,"b":11,"pending":6,"retries":2}`},
		{Event{Kind: KindRequeue, Class: 5, A: 14, B: 15, Retries: 1},
			`{"k":"requeue","seq":0,"class":5,"a":14,"b":15,"retries":1}`},
		{Event{Kind: KindPerturb, Worker: 2, Point: "verdict", Act: "fail", A: 14, B: 15},
			`{"k":"perturb","seq":0,"worker":2,"point":"verdict","act":"fail","a":14,"b":15}`},
		{Event{Kind: KindEnumerate, PIs: 10, Merges: 130, Dur: time.Millisecond},
			`{"k":"enumerate","seq":0,"pis":10,"merges":130}`},
		// An enumeration that merged nothing still says so.
		{Event{Kind: KindEnumerate, PIs: 3},
			`{"k":"enumerate","seq":0,"pis":3,"merges":0}`},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		tr := NewJSONL(&buf)
		tr.Deterministic = true
		tr.Emit(c.ev)
		if got := strings.TrimSpace(buf.String()); got != c.want {
			t.Errorf("event %+v:\n got %s\nwant %s", c.ev, got, c.want)
		}
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestJSONLStickyError(t *testing.T) {
	w := &failWriter{}
	tr := NewJSONL(w)
	tr.Emit(Event{Kind: KindSweepStart, Workers: 1})
	tr.Emit(Event{Kind: KindSweepDone})
	if tr.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if w.n != 1 {
		t.Errorf("writer called %d times after error, want 1 (sticky)", w.n)
	}
}
