package main

import (
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank is how many samples must lie beyond a reported tail percentile.
const tailRank = 10

// tail returns the highest-ranked sample with tailRank samples beyond it,
// and the percentile that sample stands for; ok is false when there are
// too few samples for one.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailRank {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - tailRank - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// peakRSSMB reads the process's peak resident set size from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
