package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// byteSrc hands out fuzz bytes, then zeros once they run out.
type byteSrc []byte

func (s *byteSrc) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// value draws a gradient entry from a palette that makes ties (small
// integers), exact zeros, and magnitudes far apart (so folding the
// missing mass in and out of the prefix rounds its low bits away).
func (s *byteSrc) value() float64 {
	b := s.next()
	x := float64(int8(s.next()))
	switch b % 6 {
	case 0:
		return 0
	case 1:
		return float64(int(b>>3)%7 - 3)
	case 2:
		return x * 1e6
	case 3:
		return x * 1e-7
	default:
		return x/37 + float64(int8(s.next()))/4099
	}
}

// splitCase is one finder input decoded from fuzz bytes.
type splitCase struct {
	f              Finder
	h              *Hist
	totalG, totalH []float64
	numBins        []int
}

// decodeSplitCase builds histograms covering C in {1, 3}, mixed slot
// widths, candidate counts below the width, empty bins, zero-mass
// features, missing mass and MinChildHess > 0.
func decodeSplitCase(data []byte) splitCase {
	s := byteSrc(data)
	c := 1
	if s.next()%2 == 1 {
		c = 3
	}
	p := s.next()
	f := Finder{
		Lambda:       []float64{1, 0.5, 1e-3, 0}[p%4],
		Gamma:        []float64{0, 0.1, 5, -0.5}[p/4%4],
		MinChildHess: []float64{0, 0, 0.5, 3}[p/16%4],
	}
	nf := 1 + int(s.next()%6)
	widths := make([]int, nf)
	for i := range widths {
		widths[i] = int(s.next() % 9) // 0 still gets one bin
	}
	h := New(NewLayout(widths, c))
	var numBins []int
	if s.next()%2 == 1 {
		numBins = make([]int, nf)
		for i := range numBins {
			numBins[i] = h.Width(i) - int(s.next()%3)
		}
	}
	for feat := 0; feat < nf; feat++ {
		mode := s.next()
		if mode%4 == 0 {
			continue // zero-mass feature
		}
		for bin := 0; bin < h.Width(feat); bin++ {
			if s.next()%3 == 0 {
				continue // empty bin
			}
			for k := 0; k < c; k++ {
				g, hs := s.value(), math.Abs(s.value())
				if mode%4 == 1 {
					g, hs = float64(int(mode>>2)%5-2), 1 // identical bins: ties
				}
				h.Add(feat, bin, k, g, hs)
			}
		}
	}
	// Some zero entries become -0, which counts as empty too.
	if neg := int(s.next()); neg%2 == 1 {
		for i := range h.Grad {
			if h.Grad[i] == 0 && (i+neg)%3 == 0 {
				h.Grad[i] = math.Copysign(0, -1)
			}
			if h.Hess[i] == 0 && (i+neg)%4 == 0 {
				h.Hess[i] = math.Copysign(0, -1)
			}
		}
	}
	// Node totals: the first slot's mass plus missing mass.
	totalG, totalH := make([]float64, c), make([]float64, c)
	h.FeatTotals(0, totalG, totalH)
	for k := 0; k < c; k++ {
		totalG[k] += s.value()
		totalH[k] += math.Abs(s.value())
	}
	return splitCase{f: f, h: h, totalG: totalG, totalH: totalH, numBins: numBins}
}

func sameSplit(a, b Split) bool {
	return a.Feature == b.Feature && a.Bin == b.Bin && a.DefaultLeft == b.DefaultLeft &&
		a.Valid == b.Valid && math.Float64bits(a.Gain) == math.Float64bits(b.Gain)
}

// checkSplitCase compares the finder with the plain scan on the full slot
// range and on every sub-range.
func checkSplitCase(t *testing.T, data []byte) {
	t.Helper()
	sc := decodeSplitCase(data)
	nf := sc.h.NumFeat
	for lo := 0; lo < nf; lo++ {
		for hi := lo + 1; hi <= nf; hi++ {
			got := sc.f.FindBestInRange(sc.h, sc.totalG, sc.totalH, sc.numBins, lo, hi)
			want := sc.f.findBestReference(sc.h, sc.totalG, sc.totalH, sc.numBins, lo, hi)
			if !sameSplit(got, want) {
				t.Fatalf("slots [%d,%d) finder %+v: got %+v, plain scan %+v", lo, hi, sc.f, got, want)
			}
		}
	}
}

// FuzzFindBest holds the sparsity-aware finder to the plain scan bit for
// bit.
func FuzzFindBest(f *testing.F) {
	f.Add([]byte{0, 0, 3, 4, 4, 4, 1, 1, 1, 1, 2, 7, 9, 200, 1, 5, 6, 1, 3})
	f.Add([]byte{1, 21, 2, 8, 3, 1, 0, 2, 1, 40, 3, 99, 2, 4, 5, 200, 130})
	f.Add([]byte{0, 50, 5, 8, 8, 8, 8, 8, 1, 2, 2, 2, 2, 2, 3, 9, 1, 0, 2, 4, 5, 6})
	f.Add([]byte{1, 255, 4, 2, 6, 0, 5, 0, 1, 1, 7, 22, 16, 33, 2, 102, 3, 3})
	f.Fuzz(checkSplitCase)
}

// TestFindBestMatchesPlainScan runs the fuzz property over seeded random
// inputs, so every plain test run covers it.
func TestFindBestMatchesPlainScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 512)
	for i := 0; i < 3000; i++ {
		rng.Read(data[:rng.Intn(len(data))])
		checkSplitCase(t, data)
	}
}

// TestFindBestZeroMassNegativeGamma: with gamma < 0 an empty feature's
// candidates gain -gamma > 0, so it must not be skipped.
func TestFindBestZeroMassNegativeGamma(t *testing.T) {
	f := &Finder{Lambda: 1, Gamma: -1}
	h := New(UniformLayout(2, 3, 1))
	h.Add(1, 0, 0, -1, 1)
	s := f.FindBest(h, []float64{-1}, []float64{1}, nil)
	if !s.Valid || s.Feature != 0 {
		t.Fatalf("split = %+v, want the empty feature 0", s)
	}
}

// sparseHist builds a histogram shaped like a node of the vertical
// 5-class benchmark: slots of up to 20 bins, a third of them without
// mass on the node and most bins of the rest empty.
func sparseHist(rng *rand.Rand, slots, c int) (*Hist, []float64, []float64) {
	widths := make([]int, slots)
	for i := range widths {
		widths[i] = 16 + rng.Intn(5)
	}
	h := New(NewLayout(widths, c))
	for feat := 0; feat < slots; feat++ {
		if rng.Intn(3) == 0 {
			continue
		}
		for bin := 0; bin < widths[feat]; bin++ {
			if rng.Intn(10) < 7 {
				continue
			}
			for k := 0; k < c; k++ {
				h.Add(feat, bin, k, rng.NormFloat64(), rng.Float64()/4)
			}
		}
	}
	totalG, totalH := make([]float64, c), make([]float64, c)
	for k := range totalG {
		totalG[k] = 40 * rng.NormFloat64()
		totalH[k] = 200 + 50*rng.Float64()
	}
	return h, totalG, totalH
}

func TestFindBestAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := &Finder{Lambda: 1}
	for _, c := range []int{1, 5} {
		h, g, hs := sparseHist(rng, 50, c)
		if n := testing.AllocsPerRun(20, func() { f.FindBest(h, g, hs, nil) }); n != 0 {
			t.Errorf("C=%d: %v allocations per call, want 0", c, n)
		}
	}
}

func BenchmarkFindBest(b *testing.B) {
	for _, c := range []int{1, 5} {
		rng := rand.New(rand.NewSource(1))
		h, g, hs := sparseHist(rng, 500, c)
		f := &Finder{Lambda: 1}
		name := map[int]string{1: "C1", 5: "C5"}[c]
		b.Run(name+"/sparsity-aware", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.FindBest(h, g, hs, nil)
			}
		})
		b.Run(name+"/plain", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.findBestReference(h, g, hs, nil, 0, h.NumFeat)
			}
		})
	}
}
