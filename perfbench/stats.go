package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of ds, sorting ds in place.
// It returns 0 for an empty slice.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(math.Ceil(q * float64(len(ds))))
	if rank < 1 {
		rank = 1
	}
	return ds[rank-1]
}

// beyond reports how many of n samples lie above the nearest-rank
// q-quantile: the guide's "at least ten samples beyond it" rule.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// medianFloat returns the median of xs without reordering the caller's
// slice.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianDur is medianFloat over durations, in the given unit.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return medianFloat(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, returning 0 when the base is 0 so a phase that did no
// work reads as zero rather than NaN (which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tailWindows is how many time-ordered runs of samples a tail quantile
// is taken over.
const tailWindows = 5

// windowQuantile splits the samples, in time order, into tailWindows runs
// of equal length and returns the median of the runs' q-quantiles: a tail
// figure that a single stall of the shared host cannot move on its own.
func windowQuantile(at []time.Time, ds []time.Duration, q float64) time.Duration {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return at[idx[a]].Before(at[idx[b]]) })
	var tails []time.Duration
	for w := 0; w < tailWindows; w++ {
		var run []time.Duration
		for _, i := range idx[w*len(idx)/tailWindows : (w+1)*len(idx)/tailWindows] {
			run = append(run, ds[i])
		}
		if len(run) > 0 {
			tails = append(tails, quantile(run, q))
		}
	}
	return quantile(tails, 0.5)
}
