package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // 0: none qualifies
	}{
		{0, 0},
		{99, 0},    // 9.9 beyond p90
		{100, 90},  // exactly 10 beyond p90
		{999, 90},  // 9 beyond p99
		{1000, 99}, // exactly 10 beyond p99
		{9999, 99}, // 9 beyond p99.9
		{10000, 99.9},
		{100000, 99.99},
		{5000000, 99.99}, // the list tops out
	} {
		p, ok := highestPercentile(c.n)
		if (c.want == 0) == ok || (ok && p != c.want) {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v", c.n, p, ok, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := summarize(xs)
	if got.N != 1000 || got.Median != 500.5 || got.TailP != 99 {
		t.Fatalf("summarize = %+v", got)
	}
	if want := quantile(xs, 0.99); got.Tail != want {
		t.Errorf("tail = %v, want %v", got.Tail, want)
	}
	if s := summarize(xs[:50]); s.TailP != 0 || s.Tail != 0 {
		t.Errorf("50 samples reported a tail: %+v", s)
	}
}
