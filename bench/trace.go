package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"simgen/internal/obs"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; the op's root span has Parent -1 and layer "op". An aggregate span
// stands for time the program reports as a total (SAT time, summed
// simulation batches) rather than as one interval: it is laid out inside
// its parent after the parent's earlier aggregate children, so the tree
// still nests and self times still add up.
type span struct {
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Op        int32  `json:"op"`
	Layer     string `json:"layer"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Aggregate bool   `json:"aggregate,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced passes of a run. A nil
// *tracer records nothing, so untraced passes call the same code at the
// cost of a nil check. It is safe for concurrent use (the service
// workload's clients record spans from two goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int32
	// aggEnd is, per parent span, where its next aggregate child starts.
	aggEnd map[int32]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), aggEnd: map[int32]int64{}}
}

// openOp opens the root span of a new op at the given instant.
func (t *tracer) openOp(at time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.ops
	t.ops++
	return t.addLocked(span{Parent: -1, Op: op, Layer: "op", Start: int64(at.Sub(t.t0))})
}

// open opens a child span of parent at the given instant.
func (t *tracer) open(parent int32, layer string, at time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(span{Parent: parent, Op: t.spans[parent].Op, Layer: layer, Start: int64(at.Sub(t.t0))})
}

// close ends span id at the given instant.
func (t *tracer) close(id int32, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// begin and end are open and close at the current instant.
func (t *tracer) begin(parent int32, layer string) int32 {
	if t == nil {
		return -1
	}
	return t.open(parent, layer, time.Now())
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.close(id, time.Now())
}

// aggregate records d of layer inside the closed span parent, clamped to
// the room the parent has left.
func (t *tracer) aggregate(parent int32, layer string, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start, ok := t.aggEnd[parent]
	if !ok {
		start = p.Start
	}
	end := min(start+int64(d), p.End)
	t.aggEnd[parent] = end
	t.addLocked(span{Parent: parent, Op: p.Op, Layer: layer, Start: start, End: end, Aggregate: true})
}

func (t *tracer) addLocked(s span) int32 {
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes returns each layer's self time — its spans' durations minus
// the durations of their children — and the total root (op) time. Child
// spans never overlap their siblings, so the self times add up to the op
// time exactly; the root's self time is the "other" layer.
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	var total time.Duration
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		} else {
			total += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		layer := s.Layer
		if layer == "op" {
			layer = "other"
		}
		out[layer] += self[i]
	}
	return out, total
}

// checkNesting reports the first span that lies outside its parent or
// overlaps an earlier sibling.
func (t *tracer) checkNesting() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	lastEnd := map[int32]int64{}
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Layer)
		}
		if s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		if s.Op != p.Op || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Layer, p.ID, p.Layer)
		}
		if s.Start < lastEnd[s.Parent] {
			return fmt.Errorf("span %d (%s) overlaps an earlier sibling", s.ID, s.Layer)
		}
		lastEnd[s.Parent] = s.End
	}
	return nil
}

// write stores the spans as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchTimer is an obs.Tracer that folds the simulation runner's batch
// events (duration and generation counters) and notes when a sweep ends;
// it ignores every other event.
type batchTimer struct {
	mu        sync.Mutex
	dur       time.Duration
	gen       genCounts
	sweepDone time.Time
}

func (t *batchTimer) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindSimBatch:
		t.mu.Lock()
		t.dur += ev.Dur
		t.gen.vectors += int(ev.Vectors)
		t.gen.stats.Decisions += ev.Decisions
		t.gen.stats.Implications += ev.Implications
		t.gen.stats.Conflicts += ev.GenConflicts
		t.gen.stats.Backtracks += ev.Backtracks
		t.mu.Unlock()
	case obs.KindSweepDone:
		t.mu.Lock()
		t.sweepDone = time.Now()
		t.mu.Unlock()
	}
}
