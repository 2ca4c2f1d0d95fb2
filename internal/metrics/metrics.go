// Package metrics quantifies simulation-vector quality. The related work
// the paper builds on optimizes proxies like "high toggle rate" (Amarù et
// al.) and "expressiveness" (Lee et al.); these functions compute those
// proxies plus the direct measure SimGen optimizes — class-splitting power —
// so vector sources can be compared on all three.
package metrics

import (
	"math"

	"simgen/internal/network"
	"simgen/internal/prover"
	"simgen/internal/sim"
)

// ToggleRate returns the fraction of (node, consecutive-vector) pairs whose
// value changes, averaged over all nodes — the "high toggle rate" proxy.
// vectors[v][i] is PI i's value under vector v.
func ToggleRate(net *network.Network, vectors [][]bool) float64 {
	if len(vectors) < 2 {
		return 0
	}
	inputs, nwords := sim.PackVectors(net, vectors)
	vals := sim.Simulate(net, inputs, nwords)
	toggles, total := 0, 0
	for id := 0; id < net.NumNodes(); id++ {
		for v := 1; v < len(vectors); v++ {
			prev := bitAt(vals[id], v-1)
			cur := bitAt(vals[id], v)
			if prev != cur {
				toggles++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(toggles) / float64(total)
}

// NodeEntropy returns the mean per-node binary entropy of the simulated
// values — the "expressiveness" proxy: vectors that exercise each node to
// both 0 and 1 equally carry the most information.
func NodeEntropy(net *network.Network, vectors [][]bool) float64 {
	if len(vectors) == 0 {
		return 0
	}
	inputs, nwords := sim.PackVectors(net, vectors)
	vals := sim.Simulate(net, inputs, nwords)
	sum := 0.0
	n := len(vectors)
	for id := 0; id < net.NumNodes(); id++ {
		ones := 0
		for v := 0; v < n; v++ {
			if bitAt(vals[id], v) {
				ones++
			}
		}
		p := float64(ones) / float64(n)
		sum += binaryEntropy(p)
	}
	return sum / float64(net.NumNodes())
}

// SplitPower simulates the vectors against an existing partition copy and
// returns the cost reduction they would achieve — the measure SimGen
// directly optimizes. The classes argument is not modified.
func SplitPower(net *network.Network, classes *sim.Classes, vectors [][]bool) int {
	if len(vectors) == 0 {
		return 0
	}
	clone := classes.Clone()
	before := clone.Cost()
	inputs, nwords := sim.PackVectors(net, vectors)
	vals := sim.Simulate(net, inputs, nwords)
	// PackVectors zero-pads the final word; only the real lanes may split.
	clone.RefineN(vals, len(vectors))
	return before - clone.Cost()
}

// FreePairFraction returns the fraction of candidate proof obligations —
// each non-singleton class member paired against its representative — whose
// combined structural support is at most maxPIs primary inputs. Those pairs
// are "free": the portfolio's exhaustive-simulation engine settles them
// without a SAT call, so this fraction predicts how much of a sweep the
// portfolio discharges for nothing. maxPIs <= 0 uses the portfolio default.
// Returns 0 when the partition has no candidate pairs.
func FreePairFraction(net *network.Network, classes *sim.Classes, maxPIs int) float64 {
	if maxPIs <= 0 {
		maxPIs = prover.DefaultSimPIs
	}
	free, total := 0, 0
	cone := network.NewCone(net)
	for _, ci := range classes.NonSingleton() {
		members := classes.Members(ci)
		rep := members[0]
		for _, m := range members[1:] {
			total++
			if len(prover.Support(net, cone, rep, m)) <= maxPIs {
				free++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(free) / float64(total)
}

// StuckNodes counts nodes that never change value across the vectors —
// dead spots the vector set fails to exercise.
func StuckNodes(net *network.Network, vectors [][]bool) int {
	if len(vectors) == 0 {
		return net.NumNodes()
	}
	inputs, nwords := sim.PackVectors(net, vectors)
	vals := sim.Simulate(net, inputs, nwords)
	stuck := 0
	n := len(vectors)
	for id := 0; id < net.NumNodes(); id++ {
		first := bitAt(vals[id], 0)
		same := true
		for v := 1; v < n; v++ {
			if bitAt(vals[id], v) != first {
				same = false
				break
			}
		}
		if same {
			stuck++
		}
	}
	return stuck
}

// Distance returns the mean Hamming distance between consecutive vectors,
// normalized by the vector width (1-distance generators score exactly
// 1/width).
func Distance(vectors [][]bool) float64 {
	if len(vectors) < 2 || len(vectors[0]) == 0 {
		return 0
	}
	total := 0
	for v := 1; v < len(vectors); v++ {
		total += hamming(vectors[v-1], vectors[v])
	}
	return float64(total) / float64((len(vectors)-1)*len(vectors[0]))
}

func hamming(a, b []bool) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

func bitAt(w sim.Words, v int) bool {
	return w[v/64]&(1<<(uint(v)%64)) != 0
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
