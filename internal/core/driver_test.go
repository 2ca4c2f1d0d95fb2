package core

import (
	"context"
	"testing"

	"simgen/internal/network"
	"simgen/internal/sim"
	"simgen/internal/tt"
)

// Script steps for scriptedSource.
const (
	stepSplit  = iota // a fresh unit vector: splits one buffer off its class
	stepFlat          // the all-zero vector again: splits nothing
	stepEmpty         // no vectors at all
	stepCancel        // cancels the run's context, then returns a unit vector
)

// scriptedSource plays a fixed script against bufferRunner's network, one
// step per NextBatch call.
type scriptedSource struct {
	npi    int
	script []int
	calls  int
	next   int // next PI to raise in a split vector
	cancel context.CancelFunc
}

func (s *scriptedSource) Name() string { return "scripted" }

func (s *scriptedSource) NextBatch(_ *sim.Classes, _ int) [][]bool {
	step := s.script[s.calls]
	s.calls++
	vec := make([]bool, s.npi)
	switch step {
	case stepEmpty:
		return nil
	case stepFlat:
		return [][]bool{vec}
	case stepCancel:
		s.cancel()
	}
	vec[s.next] = true
	s.next++
	return [][]bool{vec}
}

// bufferRunner builds a runner over npi PIs, each feeding one buffer LUT,
// whose classes are set from the all-zero vector alone: every buffer sits
// in one class, and each unit vector splits exactly one buffer off it.
func bufferRunner(t *testing.T, npi int) *Runner {
	t.Helper()
	net := network.New("buffers")
	for i := 0; i < npi; i++ {
		b := net.AddLUT("", []network.NodeID{net.AddPI("")}, tt.Var(1, 0))
		net.AddPO("", b)
	}
	r := NewRunner(net, 1, 1)
	inputs, nwords := sim.PackVectors(net, [][]bool{make([]bool, npi)})
	r.Classes = sim.NewClasses(net, sim.Simulate(net, inputs, nwords))
	if r.Classes.Cost() != npi-1 {
		t.Fatalf("setup: cost %d, want %d", r.Classes.Cost(), npi-1)
	}
	return r
}

// TestRunContextStagnation checks the guided driver's stop rule on scripted
// batches: it stops after the third consecutive flat iteration, a cost drop
// resets the count, an empty batch counts as flat, and n bounds the run
// (zero or negative runs nothing).
func TestRunContextStagnation(t *testing.T) {
	S, F, E := stepSplit, stepFlat, stepEmpty
	cases := []struct {
		name   string
		script []int
		n      int
		want   int // iterations run
		stop   StopReason
	}{
		{"three flat", []int{S, F, F, F, S, S}, 6, 4, StopFlat},
		{"flat from the start", []int{F, F, F, S}, 4, 3, StopFlat},
		{"drop resets the count", []int{F, F, S, F, F, S, F, F, F, S}, 10, 9, StopFlat},
		{"empty counts as flat", []int{S, E, F, E, S}, 5, 4, StopFlat},
		{"n bounds the run", []int{S, S, S, S, S, S}, 4, 4, StopLimit},
		{"third flat on the last iteration", []int{S, F, F, F}, 4, 4, StopLimit},
		{"two flat then the limit", []int{S, F, F}, 3, 3, StopLimit},
		{"zero n", []int{S}, 0, 0, StopLimit},
		{"negative n", []int{S}, -1, 0, StopLimit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bufferRunner(t, 8)
			src := &scriptedSource{npi: 8, script: tc.script}
			hooked := 0
			r.OnIteration = func(IterationStat, [][]bool, int) { hooked++ }
			stats := r.RunContext(context.Background(), src, tc.n)
			if len(stats) != tc.want || src.calls != tc.want || hooked != tc.want {
				t.Fatalf("ran %d iterations (%d batches, %d hook calls), want %d",
					len(stats), src.calls, hooked, tc.want)
			}
			if r.Stopped() != tc.stop {
				t.Errorf("stopped by %v, want %v", r.Stopped(), tc.stop)
			}
			for i, st := range stats {
				if st.Iteration != i {
					t.Errorf("stat %d numbered %d", i, st.Iteration)
				}
			}
		})
	}
}

// TestRunContextHookSeesEachBatch checks what the per-iteration hook is
// given: the iteration's statistics, the batch the source returned and the
// number of classes that batch split.
func TestRunContextHookSeesEachBatch(t *testing.T) {
	r := bufferRunner(t, 8)
	src := &scriptedSource{npi: 8, script: []int{stepSplit, stepEmpty, stepSplit, stepFlat}}
	type call struct{ vectors, split, cost int }
	var got []call
	r.OnIteration = func(st IterationStat, batch [][]bool, split int) {
		if st.Vectors != len(batch) {
			t.Errorf("iteration %d: stat says %d vectors, batch has %d", st.Iteration, st.Vectors, len(batch))
		}
		got = append(got, call{len(batch), split, st.Cost})
	}
	r.RunContext(context.Background(), src, 4)
	want := []call{{1, 1, 6}, {0, 0, 6}, {1, 1, 5}, {1, 0, 5}}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d iterations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("iteration %d: hook saw %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRunContextCancelled checks that a context cancelled mid-run returns
// the statistics of the iterations that completed, and that the hook still
// sees the batch of the iteration the cancel cut short, having split
// nothing.
func TestRunContextCancelled(t *testing.T) {
	r := bufferRunner(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &scriptedSource{npi: 8, script: []int{stepSplit, stepFlat, stepCancel, stepSplit}, cancel: cancel}
	var splits []int
	r.OnIteration = func(_ IterationStat, batch [][]bool, split int) {
		if len(batch) != 1 {
			t.Errorf("hook batch of %d vectors, want 1", len(batch))
		}
		splits = append(splits, split)
	}
	stats := r.RunContext(ctx, src, 10)
	if len(stats) != 2 {
		t.Fatalf("%d stats, want the 2 completed iterations", len(stats))
	}
	if r.Stopped() != StopContext {
		t.Errorf("stopped by %v, want %v", r.Stopped(), StopContext)
	}
	if len(splits) != 3 || splits[2] != 0 {
		t.Errorf("hook splits %v, want three iterations, the last splitting nothing", splits)
	}
	if got := r.Classes.Cost(); got != 6 {
		t.Errorf("cost %d after the cut iteration, want 6", got)
	}
	if src.calls != 3 {
		t.Errorf("source called %d times after the cancel, want 3", src.calls)
	}
}
