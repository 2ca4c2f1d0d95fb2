package pcache

import (
	"slices"

	"simgen/internal/network"
	"simgen/internal/prover"
	"simgen/internal/sim"
)

// Revalidation: a cache hit is never trusted blindly. Before a recorded
// verdict may influence the union-find, the pair is re-checked against
// the *current* network:
//
//   - a recorded disproof replays its stored counterexample — exact and
//     one vector cheap; a cex that no longer separates the pair means the
//     record belongs to some other (colliding or stale) cone pair,
//   - a recorded equivalence is re-simulated over the pair's combined
//     support: exhaustively (exact) when the support fits
//     prover.DefaultSimPIs, the cutoff of the portfolio's simulation stage
//     and of Refine's enumeration, otherwise with revalRandomWords words of
//     deterministic random vectors — a probabilistic filter backstopping
//     the two independent 64-bit structural hashes (see DESIGN.md 3.14
//     for the soundness budget).
//
// Both checks simulate the pair's union cone on the session's
// sim.Simulator, but deliberately emit no observability events and touch
// no engine statistics: revalidation is cache bookkeeping, and the report
// invariants pin engine counters to sweep.Result fields.

// revalRandomWords is the number of 64-lane random words simulated when
// the support is too wide to enumerate.
const revalRandomWords = 4

// evaluator returns the session's cone evaluator, compiling it on first
// use. The caller holds s.mu.
func (s *Session) evaluator() *sim.Simulator {
	if s.kernel == nil {
		s.kernel = sim.NewSimulator(s.net)
	}
	return s.kernel
}

// revalEqual re-checks a recorded equivalence: exhaustive over the
// combined support when it fits the cutoff, random words otherwise. seed
// makes the random fallback deterministic per pair.
func (s *Session) revalEqual(a, b network.NodeID, seed uint64) bool {
	var vals sim.Values
	if len(prover.Support(s.net, s.cone, a, b)) <= prover.DefaultSimPIs {
		vals = s.evaluator().SimulateConeExhaustive(s.cone)
	} else {
		state := seed
		vals = s.evaluator().SimulateCone(s.cone, revalRandomWords, func(pi network.NodeID, dst sim.Words) {
			for w := range dst {
				state += 0x9e3779b97f4a7c15
				dst[w] = mix64(state ^ (uint64(pi)<<32 | uint64(w)))
			}
		})
	}
	return slices.Equal(vals[a], vals[b])
}

// revalSeparates re-checks a recorded disproof by replaying its stored
// full-PI counterexample; exact.
func (s *Session) revalSeparates(a, b network.NodeID, cex []bool) bool {
	if len(cex) != s.net.NumPIs() {
		return false
	}
	val := make(map[network.NodeID]uint64, len(cex))
	for i, pi := range s.net.PIs() {
		if cex[i] {
			val[pi] = ^uint64(0)
		}
	}
	s.cone.Reset()
	s.cone.Add(a, nil)
	s.cone.Add(b, nil)
	vals := s.evaluator().SimulateCone(s.cone, 1, func(pi network.NodeID, dst sim.Words) {
		dst[0] = val[pi]
	})
	return vals[a][0]&1 != vals[b][0]&1
}
