// Package metrics quantifies simulation-vector quality. The related work
// the paper builds on optimizes proxies like "high toggle rate" (Amarù et
// al.) and "expressiveness" (Lee et al.); these functions compute those
// proxies plus the direct measure SimGen optimizes — class-splitting power —
// so vector sources can be compared on all three.
package metrics

import (
	"math"

	"simgen/internal/network"
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

func bitAt(w sim.Words, v int) bool {
	return w[v/64]&(1<<(uint(v)%64)) != 0
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
