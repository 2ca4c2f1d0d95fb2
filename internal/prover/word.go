package prover

import (
	"context"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"simgen/internal/network"
	"simgen/internal/obs"
	"simgen/internal/sim"
	"simgen/internal/word"
)

// sigWords is the width of the random word-level simulation signature:
// 4 words = 256 full-input vectors, evaluated exactly over every node once
// per plan, so a differing lane decodes to a real counterexample.
const sigWords = 4

// frontierConflicts caps the SAT budget of one frontier slice proof. Slice
// miters are narrow (single bit positions of one word), so a pair that
// does not settle under this budget is not a useful anchor — skip it and
// let the main ladder deal with the wide miter.
const frontierConflicts = 5000

// maxFrontierPairs bounds the anchors one Prepare call may prove. Cones of
// word obligations arrive bottom-up in practice, so later calls find their
// remaining frontier already learned.
const maxFrontierPairs = 512

// frontierPair is one candidate anchor: two word-member nodes of the same
// candidate and slice whose signatures agree.
type frontierPair struct {
	x, y  network.NodeID
	slice int32
}

// WordPlan is the immutable, shareable result of word-level analysis over
// one network: the detected structure, exact 256-lane signatures for every
// node, and the precomputed frontier pairs grouped by (candidate, slice,
// signature). One plan is built per sweep run and shared read-only by every
// worker's engine.
type WordPlan struct {
	St *word.Structure

	sig   sim.Values // node signatures, sigWords words per node
	pairs []frontierPair
}

// NewWordPlan analyses the network. It simulates every node on 256
// deterministic random input vectors (a sim.Simulator compiled from the
// network's lazily cached ISOP covers; see network.Warm). A nil or empty
// structure yields an inert plan that declines every pair.
func NewWordPlan(net *network.Network, st *word.Structure) *WordPlan {
	p := &WordPlan{St: st}
	if st == nil {
		return p
	}
	if cands, _ := st.Counts(); cands == 0 {
		return p
	}
	p.sig = sim.Simulate(net, sim.RandomInputs(net, sigWords, rand.New(rand.NewSource(0x5eed))), sigWords)

	// Frontier pairs: within each candidate, members of one slice whose
	// signatures agree are paired against the group's lowest-id node. In a
	// CEC network the two implementations share PI words, so their
	// same-footprint slices land in the same candidate — these pairs are
	// exactly the cross-implementation anchors.
	type groupKey struct {
		cand, slice int32
		sig         [sigWords]uint64
	}
	reps := map[groupKey]network.NodeID{}
	for ci, c := range p.St.Cands {
		for _, b := range c.Bits {
			var s [sigWords]uint64
			copy(s[:], p.sig[b.Node])
			key := groupKey{cand: int32(ci), slice: int32(b.Slice), sig: s}
			rep, ok := reps[key]
			if !ok {
				reps[key] = b.Node // Bits are sorted, so rep is the lowest id
				continue
			}
			p.pairs = append(p.pairs, frontierPair{x: rep, y: b.Node, slice: int32(b.Slice)})
		}
	}
	sort.Slice(p.pairs, func(i, j int) bool {
		if p.pairs[i].slice != p.pairs[j].slice {
			return p.pairs[i].slice < p.pairs[j].slice
		}
		if p.pairs[i].x != p.pairs[j].x {
			return p.pairs[i].x < p.pairs[j].x
		}
		return p.pairs[i].y < p.pairs[j].y
	})
	return p
}

// Sig returns the node's simulation signature (nil for an inert plan).
func (p *WordPlan) Sig(id network.NodeID) []uint64 {
	if p == nil || p.sig == nil {
		return nil
	}
	return p.sig[id]
}

// inert reports whether the plan declines every pair: no plan, no
// structure, or no word candidate to sign.
func (p *WordPlan) inert() bool { return p == nil || p.St == nil || p.sig == nil }

// Word is the word-level proving stage: for obligations whose nodes belong
// to detected word candidates, it proves the in-cone frontier of slice
// equalities bottom-up and learns each into the shared SAT solver, so the
// wide word miter that follows collapses by unit propagation instead of
// case-splitting through the carry structure (FORWORD, arXiv:2507.02008).
//
// The stage itself settles a pair only when the 256-lane signatures differ
// (an exact counterexample); otherwise it returns Unknown after seeding the
// solver and the ladder's SAT rung finishes the miter. It is not an Engine:
// it runs only as a stage of a Portfolio built with a word plan.
type Word struct {
	// Hook, when set, is consulted per Prepare call; FaultWordAssumeEqual
	// makes the stage report the pair equal without proving anything —
	// the unsound verdict the differential fuzzing oracle must catch.
	// Testing only.
	Hook FaultHook

	net  *network.Network
	plan *WordPlan
	sat  *SAT
	tr   obs.Tracer

	cone  *network.Cone   // the obligation's union cone
	tried map[uint64]bool // frontier pairs already attempted, either outcome
}

// NewWord creates a word stage sharing the given SAT engine, so frontier
// equalities it learns benefit every later miter in the same solver. The
// stage's own events go to tr (nil means obs.Nop); the shared SAT engine
// emits its own.
func NewWord(net *network.Network, plan *WordPlan, s *SAT, tr obs.Tracer) *Word {
	return &Word{
		net:   net,
		plan:  plan,
		sat:   s,
		tr:    obs.OrNop(tr),
		cone:  network.NewCone(net),
		tried: make(map[uint64]bool),
	}
}

// applies reports whether the stage has anything to say about the pair.
func (e *Word) applies(a, b network.NodeID) bool {
	return !e.plan.inert() && (e.plan.St.InWord(a) || e.plan.St.InWord(b))
}

// Prepare runs the word stage for one obligation: signature refutation,
// then bottom-up frontier proving restricted to the pair's union cone.
// The verdict is Differ (exact counterexample from a differing signature
// lane), Equal (only under an injected FaultWordAssumeEqual), or Unknown
// with the solver seeded. Pairs outside any detected word decline with no
// events and zero stats.
func (e *Word) Prepare(ctx context.Context, a, b network.NodeID, budget Budget) Result {
	if !e.applies(a, b) {
		return Result{}
	}
	var agg Stats
	agg.WordChecks++
	e.tr.Emit(obs.Event{Kind: obs.KindProveStart, Engine: "word",
		A: int32(a), B: int32(b), Budget: budget.Conflicts})
	if e.Hook != nil && e.Hook(a, b) == FaultWordAssumeEqual {
		e.tr.Emit(obs.Event{Kind: obs.KindProveVerdict, Engine: "word",
			A: int32(a), B: int32(b), Verdict: int8(Equal)})
		return Result{Verdict: Equal, Stats: agg}
	}
	start := time.Now()

	// Signature refutation: a differing lane is an exact separating vector
	// because the plan evaluated every node exactly on that input.
	sa, sb := e.plan.Sig(a), e.plan.Sig(b)
	for w := 0; w < sigWords; w++ {
		if d := sa[w] ^ sb[w]; d != 0 {
			m := w*64 + bits.TrailingZeros64(d)
			cex := make([]bool, e.net.NumPIs())
			for i, pi := range e.net.PIs() {
				cex[i] = (e.plan.Sig(pi)[m>>6]>>uint(m&63))&1 == 1
			}
			agg.SATTime = time.Since(start)
			e.tr.Emit(obs.Event{Kind: obs.KindProveVerdict, Engine: "word",
				A: int32(a), B: int32(b), Verdict: int8(Differ), Dur: agg.SATTime})
			return Result{Verdict: Differ, Cex: cex, Stats: agg}
		}
	}

	// Mark the union cone; frontier proving stays inside it so the work is
	// exactly what the final miter needs (cone members' slices never exceed
	// the roots', since their support is a subset).
	e.cone.Reset()
	e.cone.Add(a, nil)
	e.cone.Add(b, nil)

	fb := budget
	if fb.Conflicts == 0 || fb.Conflicts > frontierConflicts {
		fb.Conflicts = frontierConflicts
	}
	var satTime time.Duration
	proved := 0
	for _, pr := range e.plan.pairs {
		if proved >= maxFrontierPairs || ctx.Err() != nil {
			break
		}
		if !e.cone.Has(pr.x) || !e.cone.Has(pr.y) {
			continue
		}
		if (pr.x == a && pr.y == b) || (pr.x == b && pr.y == a) {
			continue // the obligation itself belongs to the main ladder
		}
		key := uint64(uint32(pr.x))<<32 | uint64(uint32(pr.y))
		if e.tried[key] {
			continue
		}
		e.tried[key] = true
		r := e.sat.Prove(ctx, pr.x, pr.y, fb)
		agg.Add(r.Stats)
		satTime += r.Stats.SATTime
		if r.Verdict == Equal {
			e.sat.Learn(pr.x, pr.y)
			agg.WordFrontier++
			proved++
			e.tr.Emit(obs.Event{Kind: obs.KindWordFrontier,
				A: int32(pr.x), B: int32(pr.y), Rung: pr.slice})
		}
	}

	// The stage's own verdict time excludes the inner SAT calls, which
	// emitted their own events: summed event durations must keep matching
	// summed engine stats.
	own := time.Since(start) - satTime
	if own < 0 {
		own = 0
	}
	agg.SATTime += own
	e.tr.Emit(obs.Event{Kind: obs.KindProveVerdict, Engine: "word",
		A: int32(a), B: int32(b), Verdict: int8(Unknown), Dur: own})
	return Result{Stats: agg}
}
