package sketch

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vero/internal/sparse"
)

func TestGKResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, eps := range []float64{0.001, 0.01, 0.2} {
		used := New(eps)
		for i := 0; i < 5000; i++ {
			used.Add(rng.NormFloat64())
		}
		used.Merge(New(eps)) // leave merge state behind too
		other := New(eps)
		other.Add(1)
		used.Merge(other)
		used.Reset()
		fresh := New(eps)
		if used.eps != fresh.eps || used.n != fresh.n || len(used.tuples) != 0 ||
			len(used.buf) != 0 || used.bufCap != fresh.bufCap || used.mergeE != fresh.mergeE {
			t.Fatalf("eps %v: reset sketch %+v differs from New %+v", eps, used, fresh)
		}
		for i := 0; i < 3000; i++ {
			v := rng.NormFloat64()
			used.Add(v)
			fresh.Add(v)
		}
		used.flush()
		fresh.flush()
		requireSameTuples(t, 0, 3000, used, fresh)
		if used.ErrorBound() != fresh.ErrorBound() {
			t.Fatalf("eps %v: error bound %v after reset, want %v", eps, used.ErrorBound(), fresh.ErrorBound())
		}
	}
}

// randomPassMatrix builds an n x d matrix whose features differ in how
// they are spread over rows: never present, present only in a row window
// (so only some worker ranges hold it), sometimes NaN, or present with a
// random density. Row entries come out in shuffled feature order.
func randomPassMatrix(t *testing.T, rng *rand.Rand, n, d int) *sparse.CSR {
	type window struct {
		lo, hi  int
		density float64
		nan     bool
	}
	wins := make([]window, d)
	for f := range wins {
		w := window{lo: 0, hi: n, density: rng.Float64()}
		switch rng.Intn(4) {
		case 0:
			w.density = 0
		case 1:
			w.lo = rng.Intn(n + 1)
			w.hi = w.lo + rng.Intn(n-w.lo+1)
		case 2:
			w.nan = true
		}
		wins[f] = w
	}
	rowPtr := []int64{0}
	var feat []uint32
	var val []float32
	for i := 0; i < n; i++ {
		start := len(feat)
		for f, w := range wins {
			if i < w.lo || i >= w.hi || rng.Float64() >= w.density {
				continue
			}
			v := float32(math.Round(rng.NormFloat64()*8) / 8)
			if w.nan && rng.Intn(3) == 0 {
				v = float32(math.NaN())
			}
			feat = append(feat, uint32(f))
			val = append(val, v)
		}
		rng.Shuffle(len(feat)-start, func(a, b int) {
			feat[start+a], feat[start+b] = feat[start+b], feat[start+a]
			val[start+a], val[start+b] = val[start+b], val[start+a]
		})
		rowPtr = append(rowPtr, int64(len(feat)))
	}
	x, err := sparse.NewCSR(n, d, rowPtr, feat, val)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// freshSketches sketches rows [lo, hi) of x with a new GK per feature, in
// row order: the loop the pass replaced.
func freshSketches(x *sparse.CSR, eps float64, lo, hi int) []*GK {
	sks := make([]*GK, x.Cols())
	for i := lo; i < hi; i++ {
		feats, vals := x.Row(i)
		for k, f := range feats {
			if sks[f] == nil {
				sks[f] = New(eps)
			}
			sks[f].Add(float64(vals[k]))
		}
	}
	return sks
}

// TestSketchPassBitIdentical runs the pass over random shapes, worker
// counts and canonical goroutine counts, with the local sketches taken
// both one after another and concurrently. Every local tuple count must
// equal a fresh sketch's, and every canonical sketch must match a fresh
// row-order sketch tuple for tuple.
func TestSketchPassBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for shape := 0; shape < 40; shape++ {
		n := rng.Intn(400)
		d := 1 + rng.Intn(12)
		eps := []float64{0.01, 0.05, 0.2}[rng.Intn(3)]
		x := randomPassMatrix(t, rng, n, d)
		want := freshSketches(x, eps, 0, n)
		for _, workers := range []int{1, 3, 4} {
			wantTuples := make([][]int, workers)
			for w := range wantTuples {
				wantTuples[w] = make([]int, d)
				for f, sk := range freshSketches(x, eps, w*n/workers, (w+1)*n/workers) {
					wantTuples[w][f] = Absent
					if sk != nil {
						wantTuples[w][f] = sk.NumTuples()
					}
				}
			}
			for _, procs := range []int{1, 2, 7} {
				for _, concurrent := range []bool{false, true} {
					p := NewPass(x, eps)
					p.procs = procs
					got := make([][]int, workers)
					var wg sync.WaitGroup
					for w := range got {
						local := func() { got[w] = p.Local(w*n/workers, (w+1)*n/workers) }
						if concurrent {
							wg.Add(1)
							go func() { defer wg.Done(); local() }()
						} else {
							local()
						}
					}
					wg.Wait()
					for w := range got {
						if !slices.Equal(got[w], wantTuples[w]) {
							t.Fatalf("shape %d (n=%d d=%d eps=%v) W=%d worker %d: tuple counts %v, want %v",
								shape, n, d, eps, workers, w, got[w], wantTuples[w])
						}
					}
					sks := p.Canonical()
					for f := range want {
						if (sks[f] == nil) != (want[f] == nil) {
							t.Fatalf("shape %d W=%d procs=%d feature %d: sketch presence %v, want %v",
								shape, workers, procs, f, sks[f] != nil, want[f] != nil)
						}
						if want[f] == nil {
							continue
						}
						sks[f].flush()
						want[f].flush()
						requireSameTuples(t, shape, f, sks[f], want[f])
					}
				}
			}
		}
	}
}

// TestPassAllocs bounds the bytes a prep-style pass (four local sketches,
// then the canonical one) allocates against a bare canonical pass. Sets
// recycled through the free list keep the two about equal; per-worker
// sets that are built and thrown away would cost about five times as
// much.
func TestPassAllocs(t *testing.T) {
	x := goldenMatrix(t, 20000)
	const workers = 4
	bytesPerRun := func(fn func(p *Pass)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for i := 0; i < runs; i++ {
			p := NewPass(x, 0.01)
			p.procs = 1
			fn(p)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	canonical := bytesPerRun(func(p *Pass) { p.Canonical() })
	prep := bytesPerRun(func(p *Pass) {
		for w := 0; w < workers; w++ {
			p.Local(w*x.Rows()/workers, (w+1)*x.Rows()/workers)
		}
		p.Canonical()
	})
	if limit := canonical + canonical/4; prep > limit {
		t.Fatalf("%d local passes + canonical allocate %d B, canonical alone %d B; want <= %d B",
			workers, prep, canonical, limit)
	}
}
