package core

import (
	"math/rand"
	"testing"

	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/testutil"
	"vero/internal/tree"
)

// TestSiblingOfMatchesTreeSplitOrder pins the invariant siblingOf silently
// depends on: tree.Split always appends children in (left, right) pairs,
// so left ids are odd and right = left+1, no matter in which order the
// frontier's nodes split or how many become leaves in between.
func TestSiblingOfMatchesTreeSplitOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		tr := tree.New(1)
		frontier := []int32{tr.Root()}
		for layer := 0; layer < 4; layer++ {
			var next []int32
			// Split a random subset of the frontier in random order, as the
			// trainer's applySplits does when some nodes become leaves.
			order := rng.Perm(len(frontier))
			for _, i := range order {
				id := frontier[i]
				if rng.Float64() < 0.3 && id != tr.Root() {
					tr.SetLeaf(id, []float64{0})
					continue
				}
				l, r := tr.Split(id, 0, 0, 0, false, 0)
				if l%2 != 1 {
					t.Fatalf("left child id %d is even; siblingOf assumes left ids are odd", l)
				}
				if r != l+1 {
					t.Fatalf("right child %d is not left+1 (left=%d)", r, l)
				}
				if got := siblingOf(&nodeInfo{id: l}); got != r {
					t.Fatalf("siblingOf(left=%d) = %d, want %d", l, got, r)
				}
				if got := siblingOf(&nodeInfo{id: r}); got != l {
					t.Fatalf("siblingOf(right=%d) = %d, want %d", r, got, l)
				}
				next = append(next, l, r)
			}
			frontier = next
			if len(frontier) == 0 {
				break
			}
		}
	}
}

// TestHistogramMemoryGaugeBalances trains every quadrant and checks that
// the histogram memory gauge returns to zero: each charged histogram is
// released exactly once, with the pool recycling in between.
func TestHistogramMemoryGaugeBalances(t *testing.T) {
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: 400, D: 20, C: 3, InformativeRatio: 0.4, Density: 0.4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Quadrant{QD1, QD2, QD3, QD4} {
		cl := cluster.New(3, cluster.Gigabit())
		if _, err := Train(cl, ds, Config{Quadrant: q, Trees: 3, Layers: 4, Splits: 8}); err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		mem := cl.Stats().Mem("histogram")
		for w, cur := range mem.Cur {
			if cur != 0 {
				t.Errorf("%v: worker %d histogram gauge = %d bytes after training, want 0", q, w, cur)
			}
			if mem.Peak[w] <= 0 {
				t.Errorf("%v: worker %d histogram gauge peak = %d, want > 0", q, w, mem.Peak[w])
			}
		}
	}
}

// TestHistogramPoolRecycles drives the training loop directly and checks
// the arena serves the steady state from recycled buffers instead of fresh
// allocations.
func TestHistogramPoolRecycles(t *testing.T) {
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: 400, D: 20, C: 2, InformativeRatio: 0.4, Density: 0.4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Quadrant{QD1, QD2, QD3, QD4} {
		cl := cluster.New(3, cluster.Gigabit())
		// Buffers are reused within a tree (released leaves and, at the
		// last layer, every searched histogram) and across trees, so the
		// avoidance factor grows with the tree count (the paper trains
		// T=100).
		tr := newTestTrainer(t, cl, ds, Config{Quadrant: q, Trees: 20, Layers: 4, Splits: 8})
		if _, err := tr.run(nil); err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		gets, reuses := tr.pool.Stats()
		if gets == 0 {
			t.Fatalf("%v: histogram pool unused", q)
		}
		// gets is the number of histograms the phase consumed; gets-reuses
		// the number actually allocated. Their ratio is the factor of
		// histogram-phase allocations the arena avoids vs. allocating per
		// histogram as the pre-pool code did.
		fresh := gets - reuses
		if factor := float64(gets) / float64(fresh); factor < 10 {
			t.Errorf("%v: pool avoids only %.1fx histogram allocations (gets=%d fresh=%d), want >= 10x",
				q, factor, gets, fresh)
		}
	}
}

// newTestTrainer builds a prepared trainer the way Train does, exposing
// internals to white-box tests and benchmarks.
func newTestTrainer(t testing.TB, cl *cluster.Cluster, ds *datasets.Dataset, cfg Config) *trainer {
	t.Helper()
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	obj, err := objective(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(cl, ds, cfg, obj)
	if err := tr.prepare(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestVerticalHistogramHighWater pins the vertical quadrants' histogram
// working set. Layer L-1 (the last split layer) starts with its 2^(L-3)
// split parents retained for subtraction; growing it pair by pair adds
// one built histogram at a time and releases each pair once its splits
// are found, so no worker ever holds more than 2^(L-3)+1 histograms —
// where building the whole layer before searching it held 2^(L-2).
func TestVerticalHistogramHighWater(t *testing.T) {
	const layers, w = 6, 3
	ds := testutil.Binary(t, 4000, 24, 0.8, 42)
	limit := int64(1)<<(layers-3) + 1
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"QD3-hybrid", Config{Quadrant: QD3}},
		{"QD3-colwise", Config{Quadrant: QD3, ColumnIndex: IndexColumnWise}},
		{"QD4", Config{Quadrant: QD4}},
		{"QD4-fullcopy", Config{Quadrant: QD4, FullCopy: true}},
	} {
		cfg := tc.cfg
		cfg.Trees, cfg.Layers, cfg.Splits = 3, layers, 16
		cl := cluster.New(w, cluster.Gigabit())
		tr := newTestTrainer(t, cl, ds, cfg)
		res, err := tr.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for ti, tree := range res.Forest.Trees {
			if got := tree.NumLeaves(); got != 1<<(layers-1) {
				t.Fatalf("%s: tree %d has %d leaves, want a full tree of %d", tc.name, ti, got, 1<<(layers-1))
			}
		}
		mem := cl.Stats().Mem("histogram")
		layout := tr.eng.(*verticalEngine).layout
		for wk, peak := range mem.Peak {
			if want := limit * layout[wk].SizeBytes(); peak > want {
				t.Errorf("%s: worker %d histogram peak %d bytes = %.2f histograms, want <= %d",
					tc.name, wk, peak, float64(peak)/float64(layout[wk].SizeBytes()), limit)
			}
		}
		gets, reuses := tr.pool.Stats()
		if fresh := gets - reuses; fresh > w*limit {
			t.Errorf("%s: %d fresh histogram allocations in the run, want <= %d", tc.name, fresh, w*limit)
		}
	}
}
