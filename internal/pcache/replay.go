package pcache

import (
	"context"

	"simgen/internal/core"
	"simgen/internal/sim"
)

// Pattern recycling: patterns that earned a high split-power score in an
// earlier run are replayed before guided generation starts, so the warm
// partition begins where the cold run's discovery left off. Replay runs
// through the ordinary Runner.StepContext pipeline — the replayed batches
// are traced and accounted exactly like generated ones — and each
// pattern's score is refreshed with the split power it showed this run,
// so stale patterns sink toward eviction.

// replaySource serves the stored patterns highest-score-first as a
// core.VectorSource. An exhausted source returns empty batches, which a
// Runner treats as a successful no-op iteration, so Replay stops at
// exhausted.
type replaySource struct {
	vecs []Pattern
	pos  int
}

// source snapshots the store's patterns for this network's PI width.
func (s *Session) source() *replaySource {
	return &replaySource{vecs: s.store.Patterns(s.net.NumPIs())}
}

// Name implements core.VectorSource.
func (r *replaySource) Name() string { return "pcache" }

// NextBatch implements core.VectorSource.
func (r *replaySource) NextBatch(_ *sim.Classes, max int) [][]bool {
	if max <= 0 || r.pos >= len(r.vecs) {
		return nil
	}
	end := r.pos + max
	if end > len(r.vecs) {
		end = len(r.vecs)
	}
	batch := make([][]bool, 0, end-r.pos)
	for _, p := range r.vecs[r.pos:end] {
		batch = append(batch, append([]bool(nil), p.Bits...))
	}
	r.pos = end
	return batch
}

// exhausted reports whether every stored pattern has been served.
func (r *replaySource) exhausted() bool { return r.pos >= len(r.vecs) }

// Replay refines run's classes with every stored pattern and rescores
// each replayed batch with the class splits it actually produced.
// Returns the number of batches replayed; stops early on ctx
// cancellation.
func (s *Session) Replay(ctx context.Context, run *core.Runner) int {
	src := s.source()
	batches := 0
	for !src.exhausted() {
		start := src.pos
		before := run.Classes.NumClasses()
		if _, ok := run.StepContext(ctx, src, batches); !ok {
			break
		}
		delta := run.Classes.NumClasses() - before
		s.mu.Lock()
		for _, p := range src.vecs[start:src.pos] {
			s.store.Rescore(p.Bits, delta)
		}
		s.mu.Unlock()
		batches++
	}
	return batches
}
