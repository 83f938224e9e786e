package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer samples than this does not repeat.
const minBeyond = 10

// percentileLadder is the set of percentiles the benchmark may report, in
// increasing order.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest percentile of the ladder that has
// at least minBeyond of n samples beyond it, or 0 when even the median
// does not qualify.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 { // 100 − 99.9 is not exact

			best = p
		}
	}
	return best
}

// qualifies reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func qualifies(p float64, n int) bool { return p <= highestPercentile(n) }

// percentile returns the p-th percentile of xs (nearest rank on a sorted
// copy); 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile, averaging the middle pair of an even-sized
// sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
