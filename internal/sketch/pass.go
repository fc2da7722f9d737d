package sketch

import (
	"runtime"
	"sync"

	"vero/internal/sparse"
)

// Absent marks, in the tuple counts Local returns, a feature with no
// stored entry in the sketched row range: a worker holding those rows has
// no local sketch of it to ship.
const Absent = -1

// Pass is one quantile-sketch pass over a matrix: a Local call per
// worker's row range, then Canonical. Sketch sets are recycled through a
// mutex-guarded free list. Local takes a set, reads its tuple counts,
// resets it in place and gives it back; Canonical keeps the set it takes
// and returns its sketches. A cluster that runs its workers one after
// another therefore allocates a single set for the whole pass. Local and
// Canonical are safe for concurrent use.
type Pass struct {
	x     *sparse.CSR
	eps   float64
	procs int // goroutines of the canonical pass; 0 means GOMAXPROCS

	mu   sync.Mutex
	free []*sketchSet
}

// sketchSet holds one sketch slot per feature. seen records which
// features have had an entry since the last reset, NaN included: a
// feature whose only values are NaN still has a (count 0) sketch, as it
// did before sets were recycled.
type sketchSet struct {
	sks  []*GK
	seen []bool
}

// NewPass starts a sketch pass over x with error bound eps.
func NewPass(x *sparse.CSR, eps float64) *Pass {
	return &Pass{x: x, eps: eps}
}

// Local sketches the rows [lo, hi) and returns each feature's local tuple
// count (Absent for a feature without an entry there) — the summary a
// worker owning those rows would ship to have its sketches merged.
func (p *Pass) Local(lo, hi int) []int {
	s := p.get()
	x := p.x
	from, to := x.RowPtr[lo], x.RowPtr[hi]
	p.insert(s, x.Feat[from:to], x.Val[from:to], 0, uint32(x.Cols()))
	tuples := make([]int, x.Cols())
	for f, sk := range s.sks {
		tuples[f] = Absent
		if s.seen[f] {
			tuples[f] = sk.NumTuples()
			sk.Reset()
			s.seen[f] = false
		}
	}
	p.put(s)
	return tuples
}

// Canonical builds one sketch per feature by inserting every value in
// global row order, and returns them; features with no stored entry get a
// nil sketch. The features are split into contiguous ranges of about
// equal nnz, one per goroutine. Each goroutine scans the whole matrix but
// inserts only its own features, so every sketch sees exactly its
// feature's values in row order and the result does not depend on the
// goroutine count.
func (p *Pass) Canonical() []*GK {
	s := p.get()
	x := p.x
	procs := p.procs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	bounds := featureBounds(x.Feat, x.Cols(), procs)
	var wg sync.WaitGroup
	last := len(bounds) - 2
	for r := 0; r < last; r++ {
		wg.Add(1)
		go func(lo, hi uint32) {
			defer wg.Done()
			p.insert(s, x.Feat, x.Val, lo, hi)
		}(bounds[r], bounds[r+1])
	}
	p.insert(s, x.Feat, x.Val, bounds[last], bounds[last+1])
	wg.Wait()
	for f := range s.sks {
		if !s.seen[f] {
			s.sks[f] = nil
		}
	}
	return s.sks
}

// insert adds, in order, every entry of feat/val whose feature lies in
// [lo, hi) to that feature's sketch in s. Concurrent calls on disjoint
// feature ranges touch disjoint slots of s.
func (p *Pass) insert(s *sketchSet, feat []uint32, val []float32, lo, hi uint32) {
	span := hi - lo
	for k, f := range feat {
		if f-lo >= span {
			continue
		}
		// seen and the slot are written once per feature: goroutines on
		// neighbouring ranges share their cache lines.
		if !s.seen[f] {
			s.seen[f] = true
			if s.sks[f] == nil {
				s.sks[f] = New(p.eps)
			}
		}
		s.sks[f].Add(float64(val[k]))
	}
}

// featureBounds splits the d features into at most procs contiguous,
// non-empty ranges holding about equal shares of the entries in feat.
// Range r is [bounds[r], bounds[r+1]).
func featureBounds(feat []uint32, d, procs int) []uint32 {
	procs = min(procs, d)
	if procs <= 1 {
		return []uint32{0, uint32(d)}
	}
	nnz := make([]int64, d)
	for _, f := range feat {
		nnz[f]++
	}
	total := int64(len(feat))
	bounds := make([]uint32, 1, procs+1)
	var acc int64
	for f := 0; f < d-1 && len(bounds) < procs; f++ {
		acc += nnz[f]
		// Close the range once it reaches its share of the total.
		if acc*int64(procs) >= total*int64(len(bounds)) {
			bounds = append(bounds, uint32(f+1))
		}
	}
	return append(bounds, uint32(d))
}

func (p *Pass) get() *sketchSet {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	d := p.x.Cols()
	return &sketchSet{sks: make([]*GK, d), seen: make([]bool, d)}
}

func (p *Pass) put(s *sketchSet) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Splits derives each feature's candidate splits (up to q, see
// GK.CandidateSplits) and value count from per-feature sketches. The
// results cover cols features, which may exceed len(sks); a feature with
// a nil or empty sketch gets no splits and a zero count.
func Splits(sks []*GK, q, cols int) ([][]float32, []int64) {
	splits := make([][]float32, cols)
	counts := make([]int64, cols)
	for f, sk := range sks {
		if sk == nil || sk.Count() == 0 {
			continue
		}
		splits[f] = sk.CandidateSplits(q)
		counts[f] = sk.Count()
	}
	return splits, counts
}
