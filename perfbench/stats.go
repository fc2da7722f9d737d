package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a timing may report beyond its
// median, lowest first.
var tailPercentiles = []float64{90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer would make it the reading of a handful of outliers.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between order statistics. xs is not modified; an empty xs
// gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples of an n-sample set that lie above its p-th
// percentile.
func beyond(n int, p float64) int {
	// The epsilon keeps exact products such as 1000×0.99 from rounding up.
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// highestPercentile returns the highest of tailPercentiles that has at
// least minBeyond of n samples beyond it; ok is false when none has.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if beyond(n, c) >= minBeyond {
			p, ok = c, true
		}
	}
	return p, ok
}

// timing summarizes a set of latency samples the way every timing is
// reported: the median, the sample count and, when enough samples lie
// beyond it, the highest qualifying tail percentile.
type timing struct {
	N      int
	Median float64
	TailP  float64 // 0 when no tail percentile qualifies
	Tail   float64
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	if p, ok := highestPercentile(len(xs)); ok {
		t.TailP, t.Tail = p, quantile(xs, p/100)
	}
	return t
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
