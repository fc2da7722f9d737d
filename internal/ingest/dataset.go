package ingest

import (
	"fmt"
	"io"
	"os"

	"vero/internal/datasets"
	"vero/internal/sketch"
	"vero/internal/sparse"
)

// collector accumulates ordered blocks into CSR arrays, optionally feeding
// per-feature quantile sketches as rows arrive.
type collector struct {
	labels []float32
	rowPtr []int64
	feat   []uint32
	val    []float32
	cols   int

	sketchEps float64
	sketches  []*sketch.GK // nil when the pass does not sketch
}

func newCollector(sketchEps float64) *collector {
	c := &collector{rowPtr: make([]int64, 1, 1024), sketchEps: sketchEps}
	if sketchEps > 0 {
		c.sketches = make([]*sketch.GK, 0)
	}
	return c
}

// add appends one block. Blocks arrive in file order (ScanBlocks
// guarantees it), so sketch insertion order equals global row order —
// exactly the order sketch.Canonical uses.
func (c *collector) add(b *Block) error {
	if b.Cols > c.cols {
		c.cols = b.Cols
	}
	base := int64(len(c.feat))
	c.feat = append(c.feat, b.Feat...)
	c.val = append(c.val, b.Val...)
	for i := 1; i < len(b.RowPtr); i++ {
		c.rowPtr = append(c.rowPtr, base+b.RowPtr[i])
	}
	c.labels = append(c.labels, b.Labels...)
	if c.sketches != nil {
		for len(c.sketches) < c.cols {
			c.sketches = append(c.sketches, nil)
		}
		for k, f := range b.Feat {
			if c.sketches[f] == nil {
				c.sketches[f] = sketch.New(c.sketchEps)
			}
			c.sketches[f].Add(float64(b.Val[k]))
		}
	}
	return nil
}

// dataset finalizes the accumulated matrix into a Dataset named name.
func (c *collector) dataset(name string, numClass int) (*datasets.Dataset, error) {
	cols := c.cols
	if len(c.labels) == 0 {
		cols = 0
	} else if cols == 0 {
		// Rows but no stored entries: the reference parser derives cols as
		// maxFeat+1 with maxFeat starting at zero, so feature 0 exists.
		cols = 1
	}
	x, err := sparse.NewCSR(len(c.labels), cols, c.rowPtr, c.feat, c.val)
	if err != nil {
		return nil, fmt.Errorf("ingest: assemble: %w", err)
	}
	task := datasets.TaskRegression
	switch {
	case numClass == 2:
		task = datasets.TaskBinary
	case numClass > 2:
		task = datasets.TaskMulti
	}
	return &datasets.Dataset{Name: name, X: x, Labels: c.labels, NumClass: numClass, Task: task}, nil
}

// prebin derives the candidate splits and per-feature counts from the
// collector's streamed sketches. cols is the finalized dataset width,
// which can exceed the sketched width (a dataset with rows but no stored
// entries still has one feature).
func (c *collector) prebin(q, cols int) *datasets.Prebin {
	splits, counts := sketch.Splits(c.sketches, q, cols)
	return &datasets.Prebin{SketchEps: c.sketchEps, Q: q, Splits: splits, FeatCount: counts}
}

// ReadDataset parses the input through the chunked parallel pipeline and
// returns the in-memory dataset, without deriving bins. The result is
// bit-identical to the single-threaded reference parser for LibSVM input
// (datasets.ReadLibSVM): same matrix, same labels.
func ReadDataset(r io.Reader, opts Options) (*datasets.Dataset, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	c := newCollector(0)
	if err := ScanBlocks(r, opts, c.add); err != nil {
		return nil, err
	}
	return c.dataset(string(opts.Format), opts.NumClass)
}

// Ingest parses the input and simultaneously feeds per-feature quantile
// sketches, returning a dataset with a Prebin attached: candidate splits
// identical to what the trainer's canonical sketch pass would derive with
// the same (SketchEps, Q). Training the result skips the sketch phase.
func Ingest(r io.Reader, opts Options) (*datasets.Dataset, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	c := newCollector(opts.SketchEps)
	if err := ScanBlocks(r, opts, c.add); err != nil {
		return nil, err
	}
	ds, err := c.dataset(string(opts.Format), opts.NumClass)
	if err != nil {
		return nil, err
	}
	ds.Prebin = c.prebin(opts.Q, ds.NumFeatures())
	return ds, nil
}

// IngestFile is Ingest over a file.
func IngestFile(path string, opts Options) (*datasets.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	return Ingest(f, opts)
}

// Prebinned derives a Prebin for an already-materialized dataset by the
// same canonical pass ingestion streams: one sketch per feature, values
// inserted in global row order. It is how datasets that never passed
// through a file (synthetic generators) get cached.
func Prebinned(ds *datasets.Dataset, sketchEps float64, q int) *datasets.Prebin {
	splits, counts := sketch.Splits(sketch.Canonical(ds.X, sketchEps), q, ds.NumFeatures())
	return &datasets.Prebin{SketchEps: sketchEps, Q: q, Splits: splits, FeatCount: counts}
}
