// Package pcache is the cross-run verification memory: a persistent,
// journaled cache of verdicts (proven equivalences and disproofs with
// their counterexamples) and high-split-power simulation patterns, keyed
// on NPN-canonical cone structure so records survive node renumbering and
// re-synthesis of untouched logic.
//
// A Store is the disk-backed state (one per cache directory; in sweepd,
// one per process). A Session binds a store to one concrete network: it
// translates node ids to structural keys, revalidates every hit against
// the current circuit before anyone may act on it, and records fresh
// verdicts back. Session implements prover.Prober (rung 0 of the
// portfolio's escalation ladder) and sweep.Cache (the scheduler's
// pattern-recycling and incremental pre-pass surface).
package pcache

import (
	"context"
	"sync"

	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/prover"
	"simgen/internal/sim"
)

// Session binds a Store to one network for one run. It is goroutine-safe:
// the sweep scheduler shares it across all workers' engines.
type Session struct {
	store *Store
	net   *network.Network
	tr    obs.Tracer

	mu     sync.Mutex
	keyer  *Keyer
	cone   *network.Cone  // the revalidated pair's union cone
	kernel *sim.Simulator // revalidation cone evaluator; built on first use
}

// NewSession creates a session over net. Events (cache probe / hit / miss
// / evict / revalidate-fail) go to tr; nil means no tracing.
func NewSession(store *Store, net *network.Network, tr obs.Tracer) *Session {
	return &Session{
		store: store,
		net:   net,
		tr:    obs.OrNop(tr),
		keyer: NewKeyer(net),
		cone:  network.NewCone(net),
	}
}

// Probe implements prover.Prober: look the pair up by structural key and
// revalidate any record against the current network before reporting a
// hit. Anything else is a miss: no record, or a record that failed
// revalidation (or a direct record whose check hash disagrees — a key
// collision), which is evicted and reported with RevalFailed set.
func (s *Session) Probe(_ context.Context, a, b network.NodeID) prover.CacheProbe {
	s.mu.Lock()
	defer s.mu.Unlock()
	ka, kb, chk := s.keyer.pairKey(a, b)
	s.tr.Emit(obs.Event{Kind: obs.KindCacheProbe, A: int32(a), B: int32(b)})
	var cp prover.CacheProbe
	switch hit := s.store.Lookup(ka, kb, chk); hit.kind {
	case hitEqual:
		if s.revalEqual(a, b, ka^kb) {
			cp.Hit = true
			cp.Verdict = prover.Equal
			s.tr.Emit(obs.Event{Kind: obs.KindCacheHit, A: int32(a), B: int32(b),
				Verdict: obs.VerdictEqual})
			return cp
		}
		cp.RevalFailed = true
		dropped := s.store.PoisonEqual(ka, kb)
		s.tr.Emit(obs.Event{Kind: obs.KindCacheRevalidateFail, A: int32(a), B: int32(b)})
		s.tr.Emit(obs.Event{Kind: obs.KindCacheEvict, Dropped: int32(dropped)})
	case hitDiffer:
		if s.revalSeparates(a, b, hit.cex) {
			cp.Hit = true
			cp.Verdict = prover.Differ
			cp.Cex = append([]bool(nil), hit.cex...)
			s.tr.Emit(obs.Event{Kind: obs.KindCacheHit, A: int32(a), B: int32(b),
				Verdict: obs.VerdictDiffer})
			return cp
		}
		cp.RevalFailed = true
		s.store.EvictDiffer(ka, kb)
		s.tr.Emit(obs.Event{Kind: obs.KindCacheRevalidateFail, A: int32(a), B: int32(b)})
		s.tr.Emit(obs.Event{Kind: obs.KindCacheEvict, Dropped: 1})
	case hitCollision:
		cp.RevalFailed = true
		s.store.EvictPair(ka, kb)
		s.tr.Emit(obs.Event{Kind: obs.KindCacheRevalidateFail, A: int32(a), B: int32(b)})
		s.tr.Emit(obs.Event{Kind: obs.KindCacheEvict, Dropped: 1})
	}
	s.tr.Emit(obs.Event{Kind: obs.KindCacheMiss, A: int32(a), B: int32(b)})
	return cp
}

// RecordProof implements prover.Prober: store a settled verdict under the
// pair's structural keys. Differ verdicts must carry a full-PI
// counterexample (anything else is dropped — it could not be replayed for
// revalidation later).
func (s *Session) RecordProof(a, b network.NodeID, v prover.Verdict, cex []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ka, kb, chk := s.keyer.pairKey(a, b)
	switch v {
	case prover.Equal:
		s.store.AddEqual(ka, kb, chk)
	case prover.Differ:
		if len(cex) == s.net.NumPIs() {
			s.store.AddDiffer(ka, kb, chk, cex)
		}
	}
}

// RecordPatterns stores simulation vectors with their measured
// split-power score (the class splits their batch produced), feeding the
// split-power-ranked eviction. Short vectors are padded to the full PI
// width; over-long ones are dropped.
func (s *Session) RecordPatterns(vecs [][]bool, score int) {
	if len(vecs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	npi := s.net.NumPIs()
	evicted := 0
	for _, v := range vecs {
		if len(v) > npi {
			continue
		}
		bits := make([]bool, npi)
		copy(bits, v)
		evicted += s.store.AddPattern(bits, score)
	}
	if evicted > 0 {
		s.tr.Emit(obs.Event{Kind: obs.KindCacheEvict, Dropped: int32(evicted)})
	}
}
