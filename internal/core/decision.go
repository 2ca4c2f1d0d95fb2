package core

import (
	"math/rand"

	"simgen/internal/network"
)

// DecisionStrategy selects how SimGen picks a truth-table row when several
// remain possible (Definition 2.3).
type DecisionStrategy int

const (
	// DecRandom picks uniformly among the consistent rows.
	DecRandom DecisionStrategy = iota
	// DecDC ranks rows by their number of don't-cares (Eq. 1) and samples
	// with roulette-wheel selection, preferring rows that assign fewer
	// values.
	DecDC
	// DecDCMFFC combines the don't-care count with the MFFC-depth rank of
	// Eqs. 2–4: among equally unconstrained rows, prefer assigning values
	// to inputs whose MFFC is deep (private logic) and don't-cares to
	// shared, shallow inputs.
	DecDCMFFC
)

func (s DecisionStrategy) String() string {
	switch s {
	case DecDC:
		return "DC"
	case DecDCMFFC:
		return "DC+MFFC"
	default:
		return "RD"
	}
}

// Coefficients of the row priority (Eq. 4); alpha >> beta prioritizes the
// don't-care count over the MFFC metric.
const (
	priorityAlpha = 1000.0
	priorityBeta  = 1.0
)

// mffcDepths caches MFFCDepth per node (Eq. 2), which is assignment
// independent.
type mffcDepths struct {
	net   *network.Network
	depth []float64
	known []bool
}

func newMFFCDepths(net *network.Network) *mffcDepths {
	return &mffcDepths{
		net:   net,
		depth: make([]float64, net.NumNodes()),
		known: make([]bool, net.NumNodes()),
	}
}

func (m *mffcDepths) of(id network.NodeID) float64 {
	if !m.known[id] {
		m.depth[id] = m.net.MFFCDepth(id)
		m.known[id] = true
	}
	return m.depth[id]
}

// chooseRow selects a consistent, progress-making row of the node by the
// decision strategy. It returns the index into the node's row set.
func (e *engine) chooseRow(id network.NodeID, strategy DecisionStrategy, depths *mffcDepths, rng *rand.Rand) (int, bool) {
	fanins := e.fanins(id)
	st := e.stateOf(id)
	rs := e.rows.of(id)

	cand := e.cand[:0]
	for i, r := range rs.rows {
		if r.consistent(st) && r.assignsNew(st) {
			cand = append(cand, i)
		}
	}
	e.cand = cand
	if len(cand) == 0 {
		return -1, false
	}
	switch strategy {
	case DecRandom:
		return cand[rng.Intn(len(cand))], true
	default:
		prios := e.prios[:0]
		maxP := 0.0
		for _, ri := range cand {
			r := rs.rows[ri]
			p := priorityAlpha * float64(r.cube.NumDC(len(fanins)))
			if strategy == DecDCMFFC {
				p += priorityBeta * e.mffcRank(r, fanins, depths)
			}
			prios = append(prios, p)
			if p > maxP {
				maxP = p
			}
		}
		e.prios = prios
		return cand[rouletteWheel(prios, maxP, rng)], true
	}
}

// applyRowIndex applies the idx-th row of the node's row set.
func (e *engine) applyRowIndex(id network.NodeID, idx int) {
	r := e.rows.of(id).rows[idx]
	e.assign(id, true, r.out, r.cube.Mask, r.cube.Val)
}

// mffcRank implements Eq. 3: the sum of MFFC depths over the row's non-DC
// inputs. Rows that spend their assignments on deep (private) cones rank
// higher.
func (e *engine) mffcRank(r row, fanins []network.NodeID, depths *mffcDepths) float64 {
	rank := 0.0
	for i, f := range fanins {
		if _, cared := r.cube.Has(i); cared {
			rank += depths.of(f)
		}
	}
	return rank
}

// rouletteWheel samples an index with probability proportional to prios
// using stochastic acceptance (Lipowski & Lipowska). Zero-priority entries
// fall back to uniform selection.
func rouletteWheel(prios []float64, maxP float64, rng *rand.Rand) int {
	if maxP <= 0 {
		return rng.Intn(len(prios))
	}
	for tries := 0; tries < 16*len(prios); tries++ {
		i := rng.Intn(len(prios))
		if rng.Float64() <= prios[i]/maxP {
			return i
		}
	}
	// Degenerate priorities (all ~0): uniform.
	return rng.Intn(len(prios))
}
