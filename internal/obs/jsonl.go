package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// JSONL streams events as one JSON object per line. Field order is fixed
// per event kind and zero-valued optional fields are omitted, so two runs
// that emit the same events produce byte-identical streams.
//
// Wall-clock fields (t_ns since tracer creation, dur_ns of the event) are
// the only non-deterministic content; Deterministic mode suppresses them,
// which is what the golden-trace regression tests rely on.
//
// The writer buffer is reused across events: steady-state emission does
// not allocate. Errors from the underlying writer are sticky and returned
// by Err; emission never fails loudly mid-run.
type JSONL struct {
	// Deterministic suppresses t_ns and dur_ns so the stream depends only
	// on the event sequence, not on wall time.
	Deterministic bool

	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	seq   uint64
	start time.Time
	err   error
}

// NewJSONL creates a JSONL tracer over w. The caller owns w's lifetime
// (flushing and closing files).
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, start: time.Now(), buf: make([]byte, 0, 256)}
}

// Err returns the first write error, if any.
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Emit implements Tracer.
func (t *JSONL) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf[:0]
	b = append(b, `{"k":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	b = appendField(b, "seq", int64(t.seq))
	t.seq++
	if !t.Deterministic {
		b = appendField(b, "t_ns", time.Since(t.start).Nanoseconds())
	}
	if ev.Worker != 0 {
		b = appendField(b, "worker", int64(ev.Worker))
	}

	switch ev.Kind {
	case KindSweepStart:
		b = appendField(b, "workers", int64(ev.Workers))
	case KindSweepDone:
		b = appendField(b, "cost", ev.Cost)
	case KindObligation:
		b = appendField(b, "class", int64(ev.Class))
		b = appendPair(b, ev)
		b = appendField(b, "pending", int64(ev.Pending))
		b = appendOptField(b, "retries", int64(ev.Retries))
	case KindResolve:
		b = appendField(b, "class", int64(ev.Class))
		b = appendPair(b, ev)
		b = appendVerdict(b, ev.Verdict)
	case KindProveStart:
		b = appendEngine(b, ev.Engine)
		b = appendPair(b, ev)
		b = appendOptField(b, "budget", ev.Budget)
	case KindProveVerdict:
		b = appendEngine(b, ev.Engine)
		b = appendPair(b, ev)
		b = appendVerdict(b, ev.Verdict)
		b = appendOptField(b, "conflicts", ev.Conflicts)
		b = appendOptField(b, "props", ev.Props)
	case KindEscalation:
		b = appendPair(b, ev)
		b = appendField(b, "rung", int64(ev.Rung))
		b = appendOptField(b, "budget", ev.Budget)
	case KindBDDBlowup:
		b = appendPair(b, ev)
	case KindWorkerPanic:
		b = appendPair(b, ev)
		b = appendOptField(b, "retries", int64(ev.Retries))
	case KindRequeue:
		b = appendField(b, "class", int64(ev.Class))
		b = appendPair(b, ev)
		b = appendField(b, "retries", int64(ev.Retries))
	case KindPerturb:
		b = append(b, `,"point":"`...)
		b = append(b, ev.Point...)
		b = append(b, `","act":"`...)
		b = append(b, ev.Act...)
		b = append(b, '"')
		b = appendPair(b, ev)
	case KindPoolFlush:
		b = appendField(b, "lanes", int64(ev.Lanes))
		b = appendField(b, "splits", int64(ev.Splits))
		b = appendOptField(b, "dropped", int64(ev.Dropped))
	case KindCacheProbe, KindCacheMiss, KindCacheRevalidateFail:
		b = appendPair(b, ev)
	case KindCacheHit:
		b = appendPair(b, ev)
		b = appendVerdict(b, ev.Verdict)
	case KindCacheEvict:
		b = appendField(b, "dropped", int64(ev.Dropped))
	case KindWordDetect:
		b = appendField(b, "words", int64(ev.Words))
		b = appendField(b, "bits", int64(ev.WordBits))
	case KindWordFrontier:
		b = appendPair(b, ev)
		b = appendOptField(b, "slice", int64(ev.Rung))
	case KindPolicyPick:
		b = appendEngine(b, ev.Engine)
		b = appendPair(b, ev)
		if ev.Point != "" {
			b = append(b, `,"shape":"`...)
			b = append(b, ev.Point...)
			b = append(b, '"')
		}
	case KindSimBatch:
		b = appendField(b, "iter", int64(ev.Iter))
		b = appendField(b, "vectors", int64(ev.Vectors))
		b = appendField(b, "cost", ev.Cost)
		b = appendOptField(b, "decisions", ev.Decisions)
		b = appendOptField(b, "implications", ev.Implications)
		b = appendOptField(b, "backtracks", ev.Backtracks)
		b = appendOptField(b, "gen_conflicts", ev.GenConflicts)
	}
	if !t.Deterministic && ev.Dur > 0 {
		b = appendField(b, "dur_ns", ev.Dur.Nanoseconds())
	}
	b = append(b, '}', '\n')
	t.buf = b
	if t.err == nil {
		if _, err := t.w.Write(b); err != nil {
			t.err = err
		}
	}
}

func appendField(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

// appendOptField is appendField for fields omitted when zero.
func appendOptField(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendField(b, name, v)
}

func appendPair(b []byte, ev Event) []byte {
	b = appendField(b, "a", int64(ev.A))
	return appendField(b, "b", int64(ev.B))
}

func appendEngine(b []byte, engine string) []byte {
	b = append(b, `,"engine":"`...)
	b = append(b, engine...)
	return append(b, '"')
}

func appendVerdict(b []byte, v int8) []byte {
	b = append(b, `,"verdict":"`...)
	b = append(b, VerdictName(v)...)
	return append(b, '"')
}
