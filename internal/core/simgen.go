package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"

	"simgen/internal/network"
	"simgen/internal/sim"
)

// Strategy bundles the implication and decision strategies of a SimGen
// configuration. The paper's named configurations are SI+RD, AI+RD, AI+DC
// and AI+DC+MFFC; the last is "SimGen" proper.
type Strategy struct {
	Impl ImplicationStrategy
	Dec  DecisionStrategy
}

// Named strategy presets from the paper's evaluation (Table 1).
var (
	StrategySIRD   = Strategy{ImplSimple, DecRandom}
	StrategyAIRD   = Strategy{ImplAdvanced, DecRandom}
	StrategyAIDC   = Strategy{ImplAdvanced, DecDC}
	StrategySimGen = Strategy{ImplAdvanced, DecDCMFFC}
)

func (s Strategy) String() string { return s.Impl.String() + "+" + s.Dec.String() }

// Generator produces targeted simulation vectors for a fixed network using
// SimGen's guided reverse propagation (Algorithm 1 of the paper).
type Generator struct {
	net      *network.Network
	eng      *engine
	depths   *mffcDepths
	strategy Strategy
	rng      *rand.Rand

	// TargetCap bounds how many members of a class become target nodes for
	// one vector; large classes are sampled.
	TargetCap int

	// GoldPolicy selects the OUTgold distribution (default: the paper's
	// alternating policy).
	GoldPolicy OutGoldPolicy
	goldState  *goldState

	// order and honored are VectorForTargets' scratch buffers.
	order   []int
	honored []bool

	// cone holds the fanin cone of the target being justified.
	cone *network.Cone

	// Backtrack, when positive, allows that many backtracks per target: on
	// a conflict the engine undoes the most recent decision and tries a
	// different row instead of abandoning the target. The paper omits
	// backtracking for speed; this option exists for the ablation study.
	Backtrack int

	// Stats counters.
	Attempts   int // targets that required a fresh justification
	Conflicts  int // justifications abandoned due to a conflict
	Preset     int // targets already fixed by earlier propagation
	Backtracks int // decisions undone by backtracking
	Decisions  int // truth-table rows chosen by the decision strategy
}

// NewGenerator returns a generator for the network with the given strategy.
func NewGenerator(net *network.Network, strategy Strategy, seed int64) *Generator {
	return &Generator{
		net:       net,
		eng:       newEngine(net),
		depths:    newMFFCDepths(net),
		strategy:  strategy,
		rng:       rand.New(rand.NewSource(seed)),
		TargetCap: 32,
		goldState: newGoldState(),
		cone:      network.NewCone(net),
	}
}

// Name implements VectorSource.
func (g *Generator) Name() string { return g.strategy.String() }

// GenStats implements StatsSource.
func (g *Generator) GenStats() GenStats {
	return GenStats{
		Decisions:    int64(g.Decisions),
		Implications: g.eng.implications,
		Conflicts:    int64(g.Conflicts),
		Backtracks:   int64(g.Backtracks),
	}
}

// OutGold assigns desired output values to the class members: alternating
// zeros and ones in node-ID order, so that an equal number of members is
// pushed to each side of the split.
func OutGold(members []network.NodeID) ([]network.NodeID, []bool) {
	return OutGoldPhase(members, false)
}

// OutGoldPhase is OutGold with the polarity of the alternation flipped when
// phase is true. Alternating the phase across retries lets the generator
// escape target sets whose first polarity assignment is unsatisfiable.
func OutGoldPhase(members []network.NodeID, phase bool) ([]network.NodeID, []bool) {
	targets := append([]network.NodeID(nil), members...)
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	gold := make([]bool, len(targets))
	for i := range gold {
		gold[i] = (i%2 == 1) != phase
	}
	return targets, gold
}

// VectorForTargets runs Algorithm 1: it searches for a primary-input
// assignment that maximizes the number of target nodes matching their
// OUTgold values. It returns the vector (unassigned PIs filled randomly),
// a per-target flag reporting which targets were honored — simulating the
// vector is guaranteed to produce the OUTgold value at every honored
// target — and whether the vector is useful: at least one 0-target and one
// 1-target honored, so simulation can split the class. The honored slice is
// reused by the next call.
func (g *Generator) VectorForTargets(targets []network.NodeID, gold []bool) ([]bool, []bool, bool) {
	e := g.eng
	e.vals.reset()
	e.clearQueue()

	// Order target nodes by decreasing network depth (Alg. 1 line 2).
	order := g.order[:0]
	for i := range targets {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(g.net.Level(targets[b]), g.net.Level(targets[a])); c != 0 {
			return c
		}
		return cmp.Compare(targets[a], targets[b])
	})
	g.order = order

	honored := slices.Grow(g.honored[:0], len(targets))[:len(targets)]
	clear(honored)
	g.honored = honored
	okZero, okOne := false, false
	for _, ti := range order {
		target, want := targets[ti], gold[ti]
		if v, ok := e.vals.get(target); ok {
			// Fixed by an earlier target's propagation: no justification
			// work of its own, only a lucky or unlucky outcome.
			g.Preset++
			if v == want {
				honored[ti] = true
				if want {
					okOne = true
				} else {
					okZero = true
				}
			}
			continue
		}
		g.Attempts++
		if ok := g.processTarget(target, want); ok {
			honored[ti] = true
			if want {
				okOne = true
			} else {
				okZero = true
			}
		} else {
			g.Conflicts++
		}
	}

	vec := g.extractVector()
	return vec, honored, okZero && okOne
}

// processTarget implements the body of Algorithm 1's outer loop for one
// target node: assign OUTgold, then interleave implication and decision
// until the target's cone is settled or a conflict resets the attempt.
func (g *Generator) processTarget(target network.NodeID, want bool) bool {
	e := g.eng
	if v, ok := e.vals.get(target); ok {
		return v == want // already fixed (callers usually pre-check)
	}
	mark := e.vals.mark() // initVals (Alg. 1 line 4)

	e.assignAndWake(target, want)
	if !e.propagate(g.strategy.Impl) {
		e.vals.undoTo(mark)
		return false
	}

	g.cone.Reset()
	g.cone.Add(target, nil)
	var stuck map[network.NodeID]bool // allocated on first use (rare)
	// Decision stack for optional backtracking (disabled when
	// g.Backtrack == 0, the paper's configuration).
	type decisionPoint struct {
		mark  int
		node  network.NodeID
		tried map[int]bool
	}
	var stack []decisionPoint
	backtracksLeft := g.Backtrack

	for {
		cand := g.latestUpdated(stuck)
		if cand == network.NoNode {
			return true // every assigned cone node is justified
		}
		idx, ok := e.chooseRow(cand, g.strategy.Dec, g.depths, g.rng, nil)
		if !ok {
			// No consistent row assigns anything new, yet the node is not
			// justified: a degenerate state that cannot improve. Park it.
			if stuck == nil {
				stuck = make(map[network.NodeID]bool)
			}
			stuck[cand] = true
			continue
		}
		if g.Backtrack > 0 {
			stack = append(stack, decisionPoint{
				mark: e.vals.mark(), node: cand, tried: map[int]bool{idx: true},
			})
		}
		g.Decisions++
		e.applyRowIndex(cand, idx)
		if e.propagate(g.strategy.Impl) {
			continue
		}
		// Conflict: try backtracking before giving up on the target.
		recovered := false
		for backtracksLeft > 0 && len(stack) > 0 {
			top := &stack[len(stack)-1]
			e.vals.undoTo(top.mark)
			e.clearQueue()
			backtracksLeft--
			g.Backtracks++
			idx, ok := e.chooseRow(top.node, g.strategy.Dec, g.depths, g.rng, top.tried)
			if !ok {
				stack = stack[:len(stack)-1] // row choices exhausted here
				continue
			}
			top.tried[idx] = true
			g.Decisions++
			e.applyRowIndex(top.node, idx)
			if e.propagate(g.strategy.Impl) {
				recovered = true
				// Earlier "stuck" verdicts may no longer hold.
				for k := range stuck {
					delete(stuck, k)
				}
				break
			}
		}
		if !recovered {
			e.vals.undoTo(mark)
			e.clearQueue()
			return false
		}
	}
}

// latestUpdated returns the most recently updated cone node whose assigned
// output value is not yet justified by a fully-assigned row (Alg. 1 line
// 15). Justified nodes keep their remaining inputs as don't-cares — the
// point of the decision heuristics of Section 5. The trail is in
// assignment order, so the first such node met walking it backwards is
// the answer.
func (g *Generator) latestUpdated(stuck map[network.NodeID]bool) network.NodeID {
	e := g.eng
	for i := len(e.vals.trail) - 1; i >= 0; i-- {
		id := e.vals.trail[i]
		if !g.cone.Has(id) || e.kind[id] != network.KindLUT || stuck[id] {
			continue
		}
		if !e.entry(id).has(entJustified) {
			return id
		}
	}
	return network.NoNode
}

// extractVector reads the PI assignment, filling don't-care PIs randomly.
func (g *Generator) extractVector() []bool {
	vec := make([]bool, g.net.NumPIs())
	for i, pi := range g.net.PIs() {
		if v, ok := g.eng.vals.get(pi); ok {
			vec[i] = v
		} else {
			vec[i] = g.rng.Intn(2) == 1
		}
	}
	return vec
}

// NextBatch produces up to max vectors aimed at splitting the current
// non-singleton classes, visiting classes largest-first and round-robin.
// It implements the VectorSource interface used by the simulation loop.
func (g *Generator) NextBatch(classes *sim.Classes, max int) [][]bool {
	classIdx := classes.NonSingleton()
	if len(classIdx) == 0 {
		return nil
	}
	var out [][]bool
	attempts := 2 * max
	for i := 0; len(out) < max && i < attempts; i++ {
		ci := classIdx[i%len(classIdx)]
		members := classes.Members(ci)
		if len(members) > g.TargetCap {
			members = g.sampleMembers(members, g.TargetCap)
		}
		// Alternate the OUTgold polarity across passes over the classes:
		// a class whose first assignment is unsatisfiable often splits
		// under the flipped one.
		phase := (i/len(classIdx))%2 == 1
		targets, gold := g.assignGold(members, phase)
		vec, honored, ok := g.VectorForTargets(targets, gold)
		g.recordGoldOutcome(members, honored)
		if ok {
			out = append(out, vec)
		}
		if len(out) == 0 && i >= 2*len(classIdx) && i >= 16 {
			// Two full passes plus retries produced nothing useful.
			break
		}
	}
	return out
}

// sampleMembers draws n distinct members preserving determinism via the
// generator's RNG.
func (g *Generator) sampleMembers(members []network.NodeID, n int) []network.NodeID {
	idx := g.rng.Perm(len(members))[:n]
	sort.Ints(idx)
	out := make([]network.NodeID, n)
	for i, j := range idx {
		out[i] = members[j]
	}
	return out
}
