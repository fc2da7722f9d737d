package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactRank returns the fraction of values in sorted xs that are <= v.
func exactRank(xs []float64, v float64) float64 {
	i := sort.SearchFloat64s(xs, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(xs))
}

func checkQuantiles(t *testing.T, s *GK, xs []float64, slack float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	bound := s.ErrorBound()*slack + 1e-9
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := s.Query(phi)
		r := exactRank(sorted, got)
		// got must have rank within bound of phi. Use the rank of the
		// value interval [rank(got-), rank(got)] to handle duplicates.
		lo := float64(sort.SearchFloat64s(sorted, got)) / float64(len(sorted))
		if phi < lo-bound || phi > r+bound {
			t.Errorf("phi=%v: Query=%v has rank [%v,%v], outside +/-%v", phi, got, lo, r, bound)
		}
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(0.01)
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if !math.IsNaN(s.Query(0.5)) {
		t.Fatal("Query on empty sketch did not return NaN")
	}
	if s.CandidateSplits(10) != nil {
		t.Fatal("CandidateSplits on empty sketch not nil")
	}
}

func TestNewPanicsOnBadEps(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", eps)
				}
			}()
			New(eps)
		}()
	}
}

func TestSingleValue(t *testing.T) {
	s := New(0.1)
	s.Add(7.5)
	for _, phi := range []float64{0, 0.5, 1} {
		if got := s.Query(phi); got != 7.5 {
			t.Fatalf("Query(%v) = %v, want 7.5", phi, got)
		}
	}
}

func TestNaNIgnored(t *testing.T) {
	s := New(0.1)
	s.Add(math.NaN())
	s.Add(1)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (NaN ignored)", s.Count())
	}
}

func TestUniformStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(0.01)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64()
		s.Add(xs[i])
	}
	checkQuantiles(t, s, xs, 2)
}

func TestSortedAndReversedStreams(t *testing.T) {
	for name, gen := range map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(-i) },
	} {
		t.Run(name, func(t *testing.T) {
			s := New(0.02)
			xs := make([]float64, 10000)
			for i := range xs {
				xs[i] = gen(i)
				s.Add(xs[i])
			}
			checkQuantiles(t, s, xs, 2)
		})
	}
}

func TestHeavyDuplicates(t *testing.T) {
	// Sparse features have long runs of identical values; the sketch must
	// stay correct and candidate splits must deduplicate.
	rng := rand.New(rand.NewSource(2))
	s := New(0.01)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(rng.Intn(5))
		s.Add(xs[i])
	}
	checkQuantiles(t, s, xs, 2)
	splits := s.CandidateSplits(20)
	if len(splits) > 5 {
		t.Fatalf("got %d candidate splits from 5 distinct values", len(splits))
	}
	for k := 1; k < len(splits); k++ {
		if splits[k-1] >= splits[k] {
			t.Fatalf("splits not strictly increasing: %v", splits)
		}
	}
}

func TestSpaceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(0.01)
	for i := 0; i < 200000; i++ {
		s.Add(rng.NormFloat64())
	}
	// GK keeps O((1/eps) log(eps n)) tuples; allow a generous constant.
	limit := int(11.0 / 0.01 * math.Log2(0.01*200000))
	if got := s.NumTuples(); got > limit {
		t.Fatalf("summary has %d tuples, budget %d", got, limit)
	}
}

func TestMergeTwoSketches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := New(0.01), New(0.01)
	var xs []float64
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64()
		xs = append(xs, v)
		a.Add(v)
	}
	for i := 0; i < 15000; i++ {
		v := rng.NormFloat64()*2 + 1
		xs = append(xs, v)
		b.Add(v)
	}
	a.Merge(b)
	if a.Count() != int64(len(xs)) {
		t.Fatalf("merged Count = %d, want %d", a.Count(), len(xs))
	}
	if a.ErrorBound() <= a.Eps() {
		t.Fatal("merge did not widen the error bound")
	}
	checkQuantiles(t, a, xs, 2)
}

func TestMergeManyWorkerSketches(t *testing.T) {
	// Simulates step 1 of the horizontal-to-vertical transformation:
	// 8 worker-local sketches of the same feature merged into one.
	rng := rand.New(rand.NewSource(5))
	const workers = 8
	global := New(0.005)
	var xs []float64
	for w := 0; w < workers; w++ {
		local := New(0.005)
		for i := 0; i < 4000; i++ {
			v := rng.ExpFloat64() * float64(w+1)
			xs = append(xs, v)
			local.Add(v)
		}
		global.Merge(local)
	}
	checkQuantiles(t, global, xs, 2)
}

func TestMergeIntoEmpty(t *testing.T) {
	a, b := New(0.01), New(0.01)
	for i := 0; i < 100; i++ {
		b.Add(float64(i))
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("Count = %d, want 100", a.Count())
	}
	if got := a.Query(0.5); got < 40 || got > 60 {
		t.Fatalf("median after merge-into-empty = %v", got)
	}
	// And merging an empty sketch is a no-op.
	before := a.Count()
	a.Merge(New(0.01))
	if a.Count() != before {
		t.Fatal("merging empty sketch changed count")
	}
}

func TestCandidateSplitsCoverDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := New(0.005)
	for i := 0; i < 50000; i++ {
		s.Add(rng.Float64() * 100)
	}
	splits := s.CandidateSplits(20)
	if len(splits) != 20 {
		t.Fatalf("got %d splits, want 20", len(splits))
	}
	// Splits of a uniform[0,100] stream should be near 5,10,...,100.
	for i, sp := range splits {
		want := float32(5 * (i + 1))
		if math.Abs(float64(sp-want)) > 3 {
			t.Errorf("split %d = %v, want ~%v", i, sp, want)
		}
	}
}

func TestQuantilesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(0.01)
	for i := 0; i < 30000; i++ {
		s.Add(rng.NormFloat64())
	}
	qs := s.Quantiles(50)
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone at %d: %v > %v", i, qs[i-1], qs[i])
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
}

func TestAddSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := New(0.01)
	for i := 0; i < 200000; i++ {
		s.Add(rng.NormFloat64())
	}
	// AllocsPerRun truncates its average to an integer, so time batches
	// of many flushes: one allocation per flush would read as ~19 here.
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			s.Add(rng.NormFloat64())
		}
	})
	if got != 0 {
		t.Fatalf("1000 steady-state Adds allocate %v times, want 0", got)
	}
}

func TestCanonicalAllocs(t *testing.T) {
	// 20000 rows of 5 columns at 60% density: about 12000 values per
	// feature, so an allocation per flush would cost ~235 per feature.
	// What remains per feature is the GK, its buffer and the few times the
	// tuple list passes its high-water mark (each growth counts twice
	// under the race detector).
	x := goldenMatrix(t, 20000)
	var sks []*GK
	allocs := testing.AllocsPerRun(5, func() { sks = Canonical(x, 0.01) })
	nonEmpty := 0
	for _, s := range sks {
		if s != nil {
			nonEmpty++
		}
	}
	if limit := float64(12*nonEmpty + 1); allocs > limit {
		t.Fatalf("Canonical made %v allocations for %d non-empty features (nnz %d), want <= %v",
			allocs, nonEmpty, x.NNZ(), limit)
	}
}

func BenchmarkCanonical(b *testing.B) {
	x := goldenMatrix(b, 20000)
	b.ReportAllocs()
	for b.Loop() {
		Canonical(x, 0.01)
	}
}
