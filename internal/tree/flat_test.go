package tree

import (
	"math/rand"
	"testing"

	"vero/internal/sparse"
)

// randomForest grows a random but structurally valid forest for
// equivalence testing: random splits over d features, random leaf weights,
// random default directions.
func randomForest(t testing.TB, rng *rand.Rand, trees, layers, d, numClass int) *Forest {
	t.Helper()
	f := NewForest(numClass, 0.3, make([]float64, numClass), "logistic", d)
	for i := 0; i < trees; i++ {
		tr := New(numClass)
		frontier := []int32{0}
		for l := 0; l < layers; l++ {
			var next []int32
			for _, id := range frontier {
				if rng.Float64() < 0.2 { // leave some leaves shallow
					continue
				}
				left, right := tr.Split(id, int32(rng.Intn(d)), float32(rng.NormFloat64()),
					uint16(rng.Intn(20)), rng.Intn(2) == 0, rng.Float64())
				next = append(next, left, right)
			}
			frontier = next
		}
		for id := range tr.Nodes {
			if tr.Nodes[id].IsLeaf() {
				w := make([]float64, numClass)
				for k := range w {
					w[k] = rng.NormFloat64()
				}
				tr.SetLeaf(int32(id), w)
			}
		}
		f.Append(tr)
	}
	return f
}

// randomCSR builds a random sparse matrix with the given density.
func randomCSR(t testing.TB, rng *rand.Rand, rows, cols int, density float64) *sparse.CSR {
	t.Helper()
	b := sparse.NewCSRBuilder(cols)
	for i := 0; i < rows; i++ {
		var kvs []sparse.KV
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				kvs = append(kvs, sparse.KV{Index: uint32(j), Value: float32(rng.NormFloat64())})
			}
		}
		if err := b.AddRow(kvs); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestFlatMatchesPointerWalk(t *testing.T) {
	for _, tc := range []struct {
		name     string
		numClass int
		density  float64
	}{
		{"binary_dense", 1, 0.9},
		{"binary_sparse", 1, 0.1},
		{"multiclass", 4, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			f := randomForest(t, rng, 12, 6, 50, tc.numClass)
			m := randomCSR(t, rng, 200, 50, tc.density)
			ff := Compile(f)
			if err := ff.Validate(); err != nil {
				t.Fatal(err)
			}
			want := f.PredictCSR(m)
			for _, workers := range []int{1, 4} {
				got := ff.PredictCSR(m, workers)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: got %d scores, want %d", workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: score[%d] = %v, want %v (bit-exact)", workers, i, got[i], want[i])
					}
				}
			}
			// Single-row path.
			for i := 0; i < m.Rows(); i += 17 {
				feat, val := m.Row(i)
				got := ff.PredictRow(feat, val)
				for k := range got {
					if got[k] != want[i*tc.numClass+k] {
						t.Fatalf("row %d class %d: %v != %v", i, k, got[k], want[i*tc.numClass+k])
					}
				}
			}
		})
	}
}

func TestFlatMissingValuesFollowDefault(t *testing.T) {
	f := NewForest(1, 1, []float64{0}, "square", 3)
	tr := New(1)
	l, r := tr.Split(0, 2, 0.5, 0, true, 1) // route on feature 2, missing goes left
	tr.SetLeaf(l, []float64{-1})
	tr.SetLeaf(r, []float64{+1})
	f.Append(tr)
	ff := Compile(f)

	// Feature 2 absent: default left.
	if got := ff.PredictRow([]uint32{0, 1}, []float32{9, 9})[0]; got != -1 {
		t.Fatalf("missing value routed to %v, want -1", got)
	}
	// Present below threshold: left. Present above: right.
	if got := ff.PredictRow([]uint32{2}, []float32{0.4})[0]; got != -1 {
		t.Fatalf("0.4 routed to %v, want -1", got)
	}
	if got := ff.PredictRow([]uint32{2}, []float32{0.6})[0]; got != 1 {
		t.Fatalf("0.6 routed to %v, want +1", got)
	}
}

func TestFlatRootOnlyForestAndEmptyMatrix(t *testing.T) {
	f := NewForest(2, 0.1, []float64{0.5, -0.5}, "softmax", 4)
	tr := New(2)
	tr.SetLeaf(0, []float64{1, 2})
	f.Append(tr)
	ff := Compile(f)
	got := ff.PredictRow(nil, nil)
	want := []float64{0.5 + 0.1*1, -0.5 + 0.1*2}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("root-only: got %v, want %v", got, want)
		}
	}

	empty := sparse.NewCSRBuilder(4).Build()
	if out := ff.PredictCSR(empty, 4); len(out) != 0 {
		t.Fatalf("empty matrix produced %d scores", len(out))
	}
}

func TestFlatScratchDimSkipsUnroutedFeatures(t *testing.T) {
	// Splits only touch feature 0; rows carrying huge feature ids must not
	// panic or perturb routing.
	f := NewForest(1, 1, []float64{0}, "square", 1_000_000)
	tr := New(1)
	l, r := tr.Split(0, 0, 0, 0, false, 1)
	tr.SetLeaf(l, []float64{-1})
	tr.SetLeaf(r, []float64{+1})
	f.Append(tr)
	ff := Compile(f)
	if got := ff.PredictRow([]uint32{0, 999_999}, []float32{-1, 42})[0]; got != -1 {
		t.Fatalf("got %v, want -1", got)
	}
}

// TestPredictBlockMatchesPerRow is the blocked-kernel property test:
// across random forests, random sparse batches, block sizes and worker
// counts, the tree-major blocked traversal must reproduce the per-row
// walk bit-exactly.
func TestPredictBlockMatchesPerRow(t *testing.T) {
	for _, tc := range []struct {
		name     string
		numClass int
		density  float64
		trees    int
		layers   int
		d        int
	}{
		{"binary_dense", 1, 0.9, 12, 6, 50},
		{"binary_sparse", 1, 0.05, 30, 5, 300},
		{"multiclass", 4, 0.3, 12, 6, 50},
		{"deep_narrow", 1, 0.7, 3, 9, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for trial := int64(0); trial < 4; trial++ {
				rng := rand.New(rand.NewSource(100 + trial))
				f := randomForest(t, rng, tc.trees, tc.layers, tc.d, tc.numClass)
				m := randomCSR(t, rng, 150, tc.d, tc.density)
				ff := Compile(f)
				want := ff.PredictCSR(m, 1)

				feats := make([][]uint32, m.Rows())
				vals := make([][]float32, m.Rows())
				for i := range feats {
					feats[i], vals[i] = m.Row(i)
				}
				for _, block := range []int{1, 3, DefaultBlockRows, 1000} {
					got := make([]float64, len(want))
					ff.PredictBlock(feats, vals, got, block)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("trial %d block %d: score[%d] = %v, want %v (bit-exact)",
								trial, block, i, got[i], want[i])
						}
					}
					for _, workers := range []int{1, 4} {
						csr := ff.PredictCSRBlocked(m, workers, block)
						for i := range csr {
							if csr[i] != want[i] {
								t.Fatalf("trial %d block %d workers %d: CSR score[%d] = %v, want %v",
									trial, block, workers, i, csr[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestPredictBlockEdgeCases covers shapes the property test's generator
// does not produce: empty batches, all-empty rows, root-only forests and
// rows carrying feature ids no split routes on.
func TestPredictBlockEdgeCases(t *testing.T) {
	t.Run("root_only", func(t *testing.T) {
		f := NewForest(2, 0.1, []float64{0.5, -0.5}, "softmax", 4)
		tr := New(2)
		tr.SetLeaf(0, []float64{1, 2})
		f.Append(tr)
		ff := Compile(f)
		out := make([]float64, 2*2)
		ff.PredictBlock([][]uint32{nil, {1}}, [][]float32{nil, {3}}, out, 0)
		want := []float64{0.5 + 0.1*1, -0.5 + 0.1*2}
		for r := 0; r < 2; r++ {
			for k := range want {
				if out[r*2+k] != want[k] {
					t.Fatalf("row %d: got %v, want %v", r, out[r*2:r*2+2], want)
				}
			}
		}
		if res := ff.PredictCSRBlocked(sparse.NewCSRBuilder(4).Build(), 4, 0); len(res) != 0 {
			t.Fatalf("empty matrix produced %d scores", len(res))
		}
	})
	t.Run("unrouted_features", func(t *testing.T) {
		f := NewForest(1, 1, []float64{0}, "square", 1_000_000)
		tr := New(1)
		l, r := tr.Split(0, 0, 0, 0, false, 1)
		tr.SetLeaf(l, []float64{-1})
		tr.SetLeaf(r, []float64{+1})
		f.Append(tr)
		ff := Compile(f)
		out := make([]float64, 2)
		ff.PredictBlock(
			[][]uint32{{0, 999_999}, {999_999}},
			[][]float32{{-1, 42}, {42}},
			out, 7)
		if out[0] != -1 || out[1] != 1 {
			t.Fatalf("got %v, want [-1 1]", out)
		}
	})
	t.Run("empty_batch", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		ff := Compile(randomForest(t, rng, 3, 4, 10, 1))
		ff.PredictBlock(nil, nil, nil, 0) // must not panic
	})
}

func BenchmarkFlatCompile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := randomForest(b, rng, 100, 8, 200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(f)
	}
}

// TestPredictBlockAllocatesNothing: once the scratch pools are warm, a
// scoring call into a caller-owned buffer allocates nothing, on both the
// per-row path (batches under blockedMinRows) and the blocked path, float
// and binned.
func TestPredictBlockAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries")
	}
	rng := rand.New(rand.NewSource(5))
	const d = 24
	splits := randomSplits(rng, d, 20)
	f := binnedRandomForest(t, rng, splits, 10, 6, 3)
	ff := Compile(f)
	bf, err := ff.CompileBinned(f.Splits)
	if err != nil {
		t.Fatal(err)
	}
	feats, vals := boundaryRows(rng, splits, 64, 0.5)
	out := make([]float64, 64*3)
	for _, rows := range []int{1, 64} {
		for name, score := range map[string]func(){
			"float":  func() { ff.PredictBlock(feats[:rows], vals[:rows], out[:rows*3], 0) },
			"binned": func() { bf.PredictBlock(feats[:rows], vals[:rows], out[:rows*3], 0) },
		} {
			score() // warm the pools
			if n := testing.AllocsPerRun(50, score); n != 0 {
				t.Errorf("%s, %d rows: %v allocations per call, want 0", name, rows, n)
			}
		}
	}
}
