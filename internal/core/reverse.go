package core

import (
	"math/rand"

	"simgen/internal/network"
	"simgen/internal/sim"
)

// Reverse implements the reverse-simulation baseline (RevS) of Zhang et
// al., DAC'21, as characterized in the paper: pick two nodes of a class,
// assign them complementary output values, and propagate backwards with
// random choices. Unlike SimGen it applies only the implicit backward
// implication of single-choice nodes, makes every other choice at random
// without structural guidance, and aborts the whole vector on the first
// conflicting assignment.
type Reverse struct {
	net  *network.Network
	eng  *engine
	rng  *rand.Rand
	cone *network.Cone // the pair's union cone

	// Stats counters.
	Attempts  int
	Conflicts int

	decisions int64 // random row choices made while justifying outputs
}

// NewReverse returns a reverse-simulation generator for the network.
func NewReverse(net *network.Network, seed int64) *Reverse {
	return &Reverse{
		net:  net,
		eng:  newEngine(net),
		rng:  rand.New(rand.NewSource(seed)),
		cone: network.NewCone(net),
	}
}

// Name implements VectorSource.
func (r *Reverse) Name() string { return "RevS" }

// GenStats implements StatsSource. Reverse simulation makes one random row
// choice per visited node; those choices are its decisions.
func (r *Reverse) GenStats() GenStats {
	return GenStats{
		Decisions:    r.decisions,
		Implications: r.eng.implications,
		Conflicts:    int64(r.Conflicts),
	}
}

// VectorForPair attempts to build a vector giving node a the value 0 and
// node b the value 1. It reports whether the backward traversal reached the
// inputs without a conflict.
func (r *Reverse) VectorForPair(a, b network.NodeID) ([]bool, bool) {
	e := r.eng
	e.reset()
	r.Attempts++

	e.vals.set(a, false)
	e.vals.set(b, true)

	// Union of both fanin cones in reverse topological order: node IDs are
	// topological, so descending ID order visits fanouts before fanins.
	r.cone.Reset()
	r.cone.Add(a, nil)
	r.cone.Add(b, nil)
	for id := max(a, b); id >= 0; id-- {
		nd := r.net.Node(id)
		if !r.cone.Has(id) || (nd.Kind != network.KindLUT && nd.Kind != network.KindConst) {
			continue
		}
		out, ok := e.vals.get(id)
		if !ok {
			continue // don't-care node: nothing to justify
		}
		// Candidate rows honor only the node's own function and output
		// value; previous assignments are not consulted (that is the
		// limitation SimGen addresses).
		rs := r.eng.rows.of(id)
		var cand []row
		for _, rw := range rs.rows {
			if rw.out == out {
				cand = append(cand, rw)
			}
		}
		if len(cand) == 0 {
			r.Conflicts++
			return nil, false // output value impossible (constant node)
		}
		r.decisions++
		rw := cand[r.rng.Intn(len(cand))]
		for i, f := range nd.Fanins {
			v, cared := rw.cube.Has(i)
			if !cared {
				continue
			}
			if prev, assigned := e.vals.get(f); assigned {
				if prev != v {
					r.Conflicts++
					return nil, false // collision: abort the vector
				}
				continue
			}
			e.vals.set(f, v)
		}
	}

	vec := make([]bool, r.net.NumPIs())
	for i, pi := range r.net.PIs() {
		if v, ok := e.vals.get(pi); ok {
			vec[i] = v
		} else {
			vec[i] = r.rng.Intn(2) == 1
		}
	}
	return vec, true
}

// NextBatch produces up to max vectors by drawing random pairs from the
// non-singleton classes, largest classes first.
func (r *Reverse) NextBatch(classes *sim.Classes, max int) [][]bool {
	classIdx := classes.NonSingleton()
	if len(classIdx) == 0 {
		return nil
	}
	var out [][]bool
	// Like SimGen, a failed attempt moves on to another class/pair; allow
	// the same retry budget per requested vector.
	for i := 0; len(out) < max && i < 2*max; i++ {
		ci := classIdx[i%len(classIdx)]
		members := classes.Members(ci)
		ai := r.rng.Intn(len(members))
		bi := r.rng.Intn(len(members) - 1)
		if bi >= ai {
			bi++
		}
		if vec, ok := r.VectorForPair(members[ai], members[bi]); ok {
			out = append(out, vec)
		}
	}
	return out
}
