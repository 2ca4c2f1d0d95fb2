package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simgen/internal/blif"
	"simgen/internal/fuzz"
	"simgen/internal/obs"
	"simgen/internal/sweep"
)

// Two structurally different AND gates (fanin order swapped) and an OR
// gate, all on PIs a,b and PO y — the EQ and NEQ fixtures.
const (
	andBLIF  = ".model and1\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
	and2BLIF = ".model and2\n.inputs a b\n.outputs y\n.names b a y\n11 1\n.end\n"
	orBLIF   = ".model or1\n.inputs a b\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end\n"
)

// newTestServer starts a server plus its httptest front end, torn down
// (cancel + drain) with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.CancelAll()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	return srv, hs
}

// postSpec submits a spec and returns the decoded view (when accepted),
// status code, and headers.
func postSpec(t *testing.T, base string, spec JobSpec) (JobView, int, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return view, resp.StatusCode, resp.Header
}

// waitJob long-polls a job to a terminal state.
func waitJob(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.terminal() {
			return v
		}
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// getTrace fetches a job's full JSONL trace snapshot.
func getTrace(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/trace?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCECEquivalentJob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	view, code, _ := postSpec(t, hs.URL, JobSpec{
		Kind:     KindCEC,
		Circuit:  CircuitRef{BLIF: andBLIF},
		CircuitB: CircuitRef{BLIF: and2BLIF},
		Seed:     3,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	v := waitJob(t, hs.URL, view.ID)
	if v.Status != StatusDone {
		t.Fatalf("status %s (error %q)", v.Status, v.Error)
	}
	if v.Result == nil || v.Result.Verdict != "equivalent" || !v.Result.Equivalent {
		t.Fatalf("want equivalent, got %+v", v.Result)
	}
}

func TestCECNotEquivalentJob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	view, code, _ := postSpec(t, hs.URL, JobSpec{
		Kind:     KindCEC,
		Circuit:  CircuitRef{BLIF: andBLIF},
		CircuitB: CircuitRef{BLIF: orBLIF},
		Seed:     3,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	v := waitJob(t, hs.URL, view.ID)
	if v.Status != StatusDone {
		t.Fatalf("status %s (error %q)", v.Status, v.Error)
	}
	r := v.Result
	if r == nil || r.Verdict != "not_equivalent" || r.Equivalent {
		t.Fatalf("want not_equivalent, got %+v", r)
	}
	if len(r.Counterexample) != 2 {
		t.Fatalf("counterexample over 2 PIs, got %v", r.Counterexample)
	}
	// AND and OR differ exactly when a != b; the counterexample must be a
	// real witness.
	if r.Counterexample[0] == r.Counterexample[1] {
		t.Fatalf("bogus counterexample %v", r.Counterexample)
	}
}

// TestSweepJobDeadline pins the per-job budget path: sweeping the SAT-hard
// voter benchmark under a tight deadline must come back undecided — not
// failed, not hung. The deadline must stay well under the sweep's own
// time: voter's SAT sweep takes about 1.9 s on a 2-vCPU Xeon. The circuit
// needs more than 12 inputs: a narrower one is enumerated in milliseconds.
func TestSweepJobDeadline(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	view, code, _ := postSpec(t, hs.URL, JobSpec{
		Kind:      KindSweep,
		Circuit:   CircuitRef{Benchmark: "voter"},
		Method:    "none",
		TimeoutMS: 50,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	v := waitJob(t, hs.URL, view.ID)
	if v.Status != StatusDone {
		t.Fatalf("status %s (error %q)", v.Status, v.Error)
	}
	if v.Result == nil || v.Result.Verdict != "undecided" {
		t.Fatalf("want undecided, got %+v", v.Result)
	}
	if v.Result.Sweep == nil || !v.Result.Sweep.Incomplete {
		t.Fatalf("sweep result should be incomplete: %+v", v.Result.Sweep)
	}
}

// TestCancelRunningJob cancels a deadline-free SAT-hard job (voter, 31
// inputs) mid-flight.
func TestCancelRunningJob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	view, code, _ := postSpec(t, hs.URL, JobSpec{
		Kind:    KindSweep,
		Circuit: CircuitRef{Benchmark: "voter"},
		Method:  "none",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	// Wait for it to start (the pool has one worker and nothing else to do).
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		json.NewDecoder(resp.Body).Decode(&v) //nolint:errcheck
		resp.Body.Close()
		if v.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(hs.URL+"/jobs/"+view.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	v := waitJob(t, hs.URL, view.ID)
	if v.Status != StatusCanceled {
		t.Fatalf("want canceled, got %s", v.Status)
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up: a
// one-worker pool is pinned by a SAT-hard job (voter, 31 inputs) while the
// victim waits.
func TestCancelQueuedJob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	pin, code, _ := postSpec(t, hs.URL, JobSpec{
		Kind: KindSweep, Circuit: CircuitRef{Benchmark: "voter"}, Method: "none"})
	if code != http.StatusAccepted {
		t.Fatalf("pin submit: HTTP %d", code)
	}
	victim, code, _ := postSpec(t, hs.URL, JobSpec{
		Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}})
	if code != http.StatusAccepted {
		t.Fatalf("victim submit: HTTP %d", code)
	}
	resp, err := http.Post(hs.URL+"/jobs/"+victim.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	v := waitJob(t, hs.URL, victim.ID)
	if v.Status != StatusCanceled {
		t.Fatalf("want canceled, got %s (error %q)", v.Status, v.Error)
	}
	// Unpin the worker so cleanup drains fast.
	resp, err = http.Post(hs.URL+"/jobs/"+pin.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestSubmitValidationAndLookup(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	minusOne := -1
	for name, spec := range map[string]JobSpec{
		"unknown kind":    {Kind: "mutate", Circuit: CircuitRef{BLIF: andBLIF}},
		"no circuit":      {Kind: KindSweep},
		"two sources":     {Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF, Benchmark: "square"}},
		"cec missing b":   {Kind: KindCEC, Circuit: CircuitRef{BLIF: andBLIF}},
		"bad method":      {Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}, Method: "oracle"},
		"bad engine":      {Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}, Engine: "quantum"},
		"word engine":     {Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}, Engine: "word"},
		"path w/o root":   {Kind: KindSweep, Circuit: CircuitRef{Path: "x.blif"}},
		"sweep+circuit_b": {Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}, CircuitB: CircuitRef{BLIF: orBLIF}},
		"negative rungs":  {Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}, MaxEscalations: &minusOne},
		"negative nodes":  {Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}, BDDNodes: -1},
		"workers -3":      {Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}, Workers: -3},
	} {
		if name == "path w/o root" {
			// Admission accepts it; the job itself fails at load time.
			view, code, _ := postSpec(t, hs.URL, spec)
			if code != http.StatusAccepted {
				t.Fatalf("%s: HTTP %d", name, code)
			}
			if v := waitJob(t, hs.URL, view.ID); v.Status != StatusFailed {
				t.Fatalf("%s: want failed, got %s", name, v.Status)
			}
			continue
		}
		if _, code, _ := postSpec(t, hs.URL, spec); code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", name, code)
		}
	}
	// The decoder disallows unknown fields, so retry_limit, which requeues
	// no longer read, is a 400 like any other.
	resp, err := http.Post(hs.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"sweep","circuit":{"benchmark":"square"},"retry_limit":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("retry_limit: want 400, got %d", resp.StatusCode)
	}
	for _, path := range []string{"/jobs/nope", "/jobs/nope/trace", "/jobs/nope/report"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: want 404, got %d", path, resp.StatusCode)
		}
	}
	// Trace of a traceless job is also a 404.
	view, code, _ := postSpec(t, hs.URL, JobSpec{Kind: KindSweep, Circuit: CircuitRef{BLIF: andBLIF}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitJob(t, hs.URL, view.ID)
	resp, err = http.Get(hs.URL + "/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("traceless trace: want 404, got %d", resp.StatusCode)
	}
}

// fuzzBLIF renders a deterministic fuzz circuit as inline BLIF.
func fuzzBLIF(t testing.TB, shape string, seed int64) string {
	t.Helper()
	return fuzzBLIFPIs(t, shape, seed, 0)
}

// fuzzBLIFPIs is fuzzBLIF with the shape's input count replaced by pis
// when pis > 0. Every preset has at most 12 inputs, so its jobs are
// enumerated and schedule no obligation; a job meant to exercise the
// scheduler needs more.
func fuzzBLIFPIs(t testing.TB, shape string, seed int64, pis int) string {
	t.Helper()
	sh, ok := fuzz.Shapes()[shape]
	if !ok {
		t.Fatalf("unknown shape %q", shape)
	}
	if pis > 0 {
		sh.PIs = pis
	}
	var buf bytes.Buffer
	if err := blif.Write(&buf, fuzz.Generate(rand.New(rand.NewSource(seed)), sh)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// directSweep runs the cmd/sweep pipeline — sweep.Refine, then, for a
// sweep job, the obligation scheduler — for one spec with a bare JSONL
// tracer. It is deliberately NOT implemented via Execute: it pins that the
// service and the CLI pipeline stay the same computation.
func directSweep(t testing.TB, spec JobSpec) (*Result, []byte) {
	t.Helper()
	sp := spec
	sp.normalize()
	net, err := NewLoader("", nil).Load(sp.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jt := obs.NewJSONL(&buf)
	jt.Deterministic = sp.Deterministic
	opts := sp.sweepOptions()
	opts.Tracer = jt

	ref, err := sweep.Refine(context.Background(), net, sp.flowOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Kind: sp.Kind, InitialCost: ref.InitialCost, GuidedCost: ref.Run.Classes.Cost()}
	if sp.Kind == KindSimGen {
		res.Verdict = "refined"
		res.FinalCost = res.GuidedCost
		return res, buf.Bytes()
	}
	sr := sweep.New(net, ref.Run.Classes, opts).RunParallelContext(context.Background(), sp.Workers)
	res.Sweep = &sr
	res.FinalCost = sr.FinalCost
	if sr.Incomplete {
		res.Verdict = "undecided"
	} else {
		res.Verdict = "swept"
	}
	return res, buf.Bytes()
}

// TestConcurrentJobParity is the service's determinism gate: a batch of
// deterministic workers=1 jobs submitted concurrently to a multi-worker
// pool must each produce exactly the Result and the byte-identical JSONL
// trace of a direct, in-process run of the cmd/sweep pipeline on the same
// seed. Pool concurrency, the shared metrics tracer, HTTP transport, and
// the stream sink must all be invisible to the job's computation. The
// first job (3 inputs) is enumerated; the others have 14 inputs, so they
// run guided generation (simgen, revs) and schedule SAT obligations.
func TestConcurrentJobParity(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 16})

	specs := []JobSpec{
		{Kind: KindSweep, Circuit: CircuitRef{BLIF: fuzzBLIF(t, "tiny", 11)}, Seed: 5, Trace: true, Deterministic: true},
		{Kind: KindSweep, Circuit: CircuitRef{BLIF: fuzzBLIFPIs(t, "default", 12, 14)}, Seed: 6, Trace: true, Deterministic: true},
		{Kind: KindSweep, Circuit: CircuitRef{BLIF: fuzzBLIFPIs(t, "xor-heavy", 13, 14)}, Seed: 7, Method: "revs", Trace: true, Deterministic: true},
		{Kind: KindSweep, Circuit: CircuitRef{BLIF: fuzzBLIFPIs(t, "wide", 14, 14)}, Seed: 8, Method: "none", Trace: true, Deterministic: true},
		{Kind: KindSimGen, Circuit: CircuitRef{BLIF: fuzzBLIFPIs(t, "const", 15, 14)}, Seed: 9, Trace: true, Deterministic: true},
	}

	// Submit everything up front so the pool actually runs jobs
	// concurrently.
	ids := make([]string, len(specs))
	for i, spec := range specs {
		view, code, _ := postSpec(t, hs.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d", i, code)
		}
		ids[i] = view.ID
	}
	for i, spec := range specs {
		v := waitJob(t, hs.URL, ids[i])
		if v.Status != StatusDone {
			t.Fatalf("job %d: status %s (error %q)", i, v.Status, v.Error)
		}
		want, wantTrace := directSweep(t, spec)
		// Each job must take the path it is here to cover.
		enumerated := bytes.Contains(wantTrace, []byte(`"k":"enumerate"`))
		guided := bytes.Contains(wantTrace, []byte(`"k":"sim_batch"`))
		if i == 0 {
			if !enumerated || guided || want.Sweep.Scheduled != 0 {
				t.Errorf("job %d: enumerated %v, guided %v, scheduled %d; want an enumerated sweep",
					i, enumerated, guided, want.Sweep.Scheduled)
			}
		} else {
			if enumerated || guided != (spec.Method != "none") {
				t.Errorf("job %d: enumerated %v, guided %v with method %q", i, enumerated, guided, spec.Method)
			}
			if want.Sweep != nil && want.Sweep.Scheduled == 0 {
				t.Errorf("job %d: no obligation scheduled, so the scheduler went untested", i)
			}
		}
		got := v.Result
		if got.Verdict != want.Verdict ||
			got.InitialCost != want.InitialCost ||
			got.GuidedCost != want.GuidedCost ||
			got.FinalCost != want.FinalCost {
			t.Errorf("job %d: result mismatch\n got %+v\nwant %+v", i, got, want)
		}
		if want.Sweep != nil {
			if got.Sweep == nil {
				t.Fatalf("job %d: missing sweep result", i)
			}
			if got.Sweep.Proved != want.Sweep.Proved ||
				got.Sweep.Disproved != want.Sweep.Disproved ||
				got.Sweep.Unresolved != want.Sweep.Unresolved ||
				got.Sweep.Scheduled != want.Sweep.Scheduled ||
				got.Sweep.Enumerated != want.Sweep.Enumerated {
				t.Errorf("job %d: sweep accounting mismatch\n got %s\nwant %s", i, got.Sweep, want.Sweep)
			}
		}
		gotTrace := getTrace(t, hs.URL, ids[i])
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("job %d: trace not byte-identical (%d vs %d bytes)\nfirst service lines:\n%s\nfirst direct lines:\n%s",
				i, len(gotTrace), len(wantTrace), firstLines(gotTrace, 3), firstLines(wantTrace, 3))
		}
		// The streamed (follow) view must match the snapshot.
		resp, err := http.Get(hs.URL + "/jobs/" + ids[i] + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		followed, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(followed, gotTrace) {
			t.Errorf("job %d: followed trace differs from snapshot", i)
		}
	}
}

func firstLines(b []byte, n int) string {
	lines := strings.SplitN(string(b), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestTraceAndReportEndpoints checks the JSONL payload is well-formed
// line-delimited JSON and the report endpoint serves a decodable report.
// The circuit has 14 inputs, so the trace holds guided iterations and
// obligations, not only an enumeration.
func TestTraceAndReportEndpoints(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	view, code, _ := postSpec(t, hs.URL, JobSpec{
		Kind:          KindSweep,
		Circuit:       CircuitRef{BLIF: fuzzBLIFPIs(t, "default", 21, 14)},
		Seed:          4,
		Trace:         true,
		Deterministic: true,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	v := waitJob(t, hs.URL, view.ID)
	if v.Status != StatusDone {
		t.Fatalf("status %s (error %q)", v.Status, v.Error)
	}
	trace := getTrace(t, hs.URL, view.ID)
	lines := bytes.Split(bytes.TrimRight(trace, "\n"), []byte("\n"))
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatal("empty trace")
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("trace line %d not JSON: %v (%q)", i, err, line)
		}
		if _, ok := m["k"]; !ok {
			t.Fatalf("trace line %d missing kind: %q", i, line)
		}
	}
	resp, err := http.Get(hs.URL + "/jobs/" + view.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: HTTP %d", resp.StatusCode)
	}
	var report map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if len(report) == 0 {
		t.Fatal("empty report")
	}

	// /metrics must include service counters by now.
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]int64
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics["sweepd.jobs.accepted"] < 1 || metrics["sweepd.jobs.completed"] < 1 {
		t.Fatalf("service counters missing from /metrics: %v", metrics)
	}
}

// TestHealthz sanity-checks the liveness endpoint shape.
func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining {
		t.Fatalf("unexpected health %+v", h)
	}
}
