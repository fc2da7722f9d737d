package partition

import (
	"fmt"

	"vero/internal/cluster"
	"vero/internal/sketch"
	"vero/internal/sparse"
)

// Variant selects the wire representation charged for the repartition
// step, matching the three rows of Table 5 in the paper's appendix.
type Variant int

// Transformation variants of Table 5.
const (
	// VariantNaive ships raw 12-byte key-value pairs.
	VariantNaive Variant = iota
	// VariantCompressed encodes feature ids in ceil(log p) bytes and
	// values as bin indexes in ceil(log q) bytes, but still ships one
	// small object per row.
	VariantCompressed
	// VariantBlockified ships compressed pairs packed into per-file-split
	// blocks (Figure 9) — the full Vero pipeline.
	VariantBlockified
)

// String names the variant as in Table 5.
func (v Variant) String() string {
	switch v {
	case VariantNaive:
		return "naive"
	case VariantCompressed:
		return "compress"
	case VariantBlockified:
		return "vero"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

const (
	// naiveKVBytes is the size of an uncompressed key-value pair: 4-byte
	// feature index + 8-byte double value (the paper's "original 12-byte
	// key-value pairs", Table 5).
	naiveKVBytes = 12
	// perObjectOverheadBytes models the serialization header of each
	// small row vector when column groups are not blockified — the
	// (de)serialization overhead Section 4.2.3 blockifies away.
	perObjectOverheadBytes = 24
	// sketchTupleBytes is the wire size of one GK tuple (value + g +
	// delta, packed).
	sketchTupleBytes = 16
)

// Options configures the transformation.
type Options struct {
	// Q is the number of candidate splits per feature.
	Q int
	// SketchEps is the quantile-sketch error bound (default 0.01).
	SketchEps float64
	// MaxBlocks is the block-merge target per worker (default 4; the
	// paper reports fewer than 5 blocks after merging).
	MaxBlocks int
	// Charge selects which variant's wire cost is charged to the cluster
	// (default VariantBlockified). Byte counts for all three variants are
	// reported regardless.
	Charge Variant
	// Splits and FeatCount, when both set, are ingestion-derived candidate
	// splits (and per-feature value counts) for every feature of x; steps
	// 1–2 of the transformation — sketch build, sketch shuffle and split
	// derivation — are skipped, and only the split broadcast is charged.
	// The values must be what the canonical sketch pass would produce;
	// internal/ingest guarantees that for warm-cache datasets.
	Splits    [][]float32
	FeatCount []int64
}

func (o *Options) setDefaults() error {
	if o.Q <= 1 {
		return fmt.Errorf("partition: candidate splits q=%d", o.Q)
	}
	if o.SketchEps == 0 {
		o.SketchEps = 0.01
	}
	if o.MaxBlocks == 0 {
		o.MaxBlocks = 4
	}
	return nil
}

// ByteReport records the wire volume of each transformation step, with the
// repartition step broken down by variant (Table 5).
type ByteReport struct {
	SketchShuffle     int64
	SplitBroadcast    int64
	NaiveShuffle      int64
	CompressedShuffle int64
	BlockifiedShuffle int64
	LabelBroadcast    int64
}

// Shard is one worker's vertical, row-stored data after the
// transformation: its feature group as blockified rows over within-group
// feature slots, plus the broadcast labels.
type Shard struct {
	Worker   int
	Features []int // slot -> global feature id
	Data     *BlockSet
	Labels   []float32
}

// Result is the output of the horizontal-to-vertical transformation.
type Result struct {
	Groups [][]int
	Binner *sparse.Binner
	Shards []*Shard
	Bytes  ByteReport
}

// Transform runs the five-step horizontal-to-vertical transformation of
// Section 4.2.1 over a dataset whose rows are horizontally partitioned
// across the cluster's workers (worker w owns the rows of
// HorizontalRanges(N, W)[w]). Compute time is measured under the
// "transform.*" phases; network volume is charged per the options.
func Transform(cl *cluster.Cluster, x *sparse.CSR, labels []float32, opts Options) (*Result, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if x.Rows() != len(labels) {
		return nil, fmt.Errorf("partition: %d rows but %d labels", x.Rows(), len(labels))
	}
	w := cl.Workers()
	d := x.Cols()
	ranges := HorizontalRanges(x.Rows(), w)
	var report ByteReport

	// Warm path: ingestion already derived the candidate splits, so the
	// transformation starts at step 3 after broadcasting them.
	if opts.Splits != nil && opts.FeatCount != nil {
		if len(opts.Splits) != d || len(opts.FeatCount) != d {
			return nil, fmt.Errorf("partition: prebin covers %d features, matrix has %d", len(opts.Splits), d)
		}
		binner := &sparse.Binner{Splits: opts.Splits}
		var splitBytes int64
		for f := 0; f < d; f++ {
			splitBytes += int64(len(opts.Splits[f])) * 4
		}
		cl.Broadcast("transform.splits", splitBytes)
		report.SplitBroadcast = splitBytes
		return transformGrouped(cl, x, labels, opts, binner, opts.FeatCount, report)
	}

	// Step 1: per-worker quantile sketches, repartitioned by feature and
	// merged into global sketches.
	pass := sketch.NewPass(x, opts.SketchEps)
	tuples := make([][]int, w)
	cl.Parallel("transform.sketch", func(wk int) {
		tuples[wk] = pass.Local(ranges[wk][0], ranges[wk][1])
	})
	// Sketch repartition: feature f's local sketches travel to worker
	// f mod W for merging. The candidate splits themselves come from the
	// canonical row-order sketches so they are identical to what the
	// horizontal quadrants compute (see sketch.Canonical).
	sketchSend := make([][]int64, w)
	for i := range sketchSend {
		sketchSend[i] = make([]int64, w)
	}
	for f := 0; f < d; f++ {
		owner := f % w
		for wk := 0; wk < w; wk++ {
			if n := tuples[wk][f]; n != sketch.Absent && wk != owner {
				sketchSend[wk][owner] += int64(n)*sketchTupleBytes + 16
			}
		}
	}
	global := pass.Canonical()
	cl.Shuffle("transform.sketch", sketchSend)
	for i := range sketchSend {
		for j := range sketchSend[i] {
			if i != j {
				report.SketchShuffle += sketchSend[i][j]
			}
		}
	}

	// Step 2: candidate splits from the merged sketches; the master
	// collects them and broadcasts to all workers.
	splits, featCount := sketch.Splits(global, opts.Q, d)
	binner := &sparse.Binner{Splits: splits}
	var splitBytes int64
	for _, sp := range splits {
		splitBytes += int64(len(sp)) * 4
	}
	cl.PointToPoint("transform.splits", splitBytes) // gather at master
	cl.Broadcast("transform.splits", splitBytes)
	report.SplitBroadcast = splitBytes
	return transformGrouped(cl, x, labels, opts, binner, featCount, report)
}

// transformGrouped runs steps 3–5 of the transformation — column
// grouping, blockified repartition and label broadcast — from already
// derived candidate splits.
func transformGrouped(cl *cluster.Cluster, x *sparse.CSR, labels []float32, opts Options, binner *sparse.Binner, featCount []int64, report ByteReport) (*Result, error) {
	w := cl.Workers()
	d := x.Cols()
	ranges := HorizontalRanges(x.Rows(), w)

	// Step 3: column grouping with greedy load balancing, plus compact
	// encoding of each (source worker, destination group) partial column
	// group into a block.
	groups := GroupColumnsBalanced(featCount, w)
	slotOf := make([]int32, d) // global feature -> slot within its group
	groupOf := make([]int32, d)
	for g, feats := range groups {
		for slot, f := range feats {
			groupOf[f] = int32(g)
			slotOf[f] = int32(slot)
		}
	}
	// blocks[src][dst] built in parallel over sources.
	blocks := make([][]*Block, w)
	cl.Parallel("transform.group", func(src int) {
		lo, hi := ranges[src][0], ranges[src][1]
		// Count each destination's entries first, so Feat and Bin are
		// allocated once, at their exact size.
		nnz := make([]int, w)
		for i := lo; i < hi; i++ {
			feats, _ := x.Row(i)
			for _, f := range feats {
				nnz[groupOf[f]]++
			}
		}
		out := make([]*Block, w)
		for dst := 0; dst < w; dst++ {
			out[dst] = &Block{
				RowStart: lo,
				RowPtr:   make([]int64, 1, hi-lo+1),
				Feat:     make([]uint32, 0, nnz[dst]),
				Bin:      make([]uint16, 0, nnz[dst]),
			}
		}
		for i := lo; i < hi; i++ {
			feats, vals := x.Row(i)
			for k, f := range feats {
				dst := groupOf[f]
				b := out[dst]
				b.Feat = append(b.Feat, uint32(slotOf[f]))
				b.Bin = append(b.Bin, binner.BinValue(int(f), vals[k]))
			}
			for dst := 0; dst < w; dst++ {
				out[dst].RowPtr = append(out[dst].RowPtr, int64(len(out[dst].Feat)))
			}
		}
		blocks[src] = out
	})

	// Step 4: repartition the column groups and charge the selected
	// variant's wire cost; all three variants' volumes are reported.
	naive := make([][]int64, w)
	compressed := make([][]int64, w)
	blockified := make([][]int64, w)
	binWidth := BinWidthBytes(opts.Q)
	for src := 0; src < w; src++ {
		naive[src] = make([]int64, w)
		compressed[src] = make([]int64, w)
		blockified[src] = make([]int64, w)
		for dst := 0; dst < w; dst++ {
			b := blocks[src][dst]
			rows := int64(b.NumRows())
			nnz := int64(b.NNZ())
			fw := FeatWidthBytes(len(groups[dst]))
			naive[src][dst] = nnz*naiveKVBytes + rows*perObjectOverheadBytes
			compressed[src][dst] = nnz*(fw+binWidth) + rows*perObjectOverheadBytes
			blockified[src][dst] = b.WireSizeBytes(fw, binWidth)
		}
	}
	sumOffDiag := func(m [][]int64) int64 {
		var t int64
		for i := range m {
			for j := range m[i] {
				if i != j {
					t += m[i][j]
				}
			}
		}
		return t
	}
	report.NaiveShuffle = sumOffDiag(naive)
	report.CompressedShuffle = sumOffDiag(compressed)
	report.BlockifiedShuffle = sumOffDiag(blockified)
	switch opts.Charge {
	case VariantNaive:
		cl.Shuffle("transform.repartition", naive)
	case VariantCompressed:
		cl.Shuffle("transform.repartition", compressed)
	default:
		cl.Shuffle("transform.repartition", blockified)
	}

	// Step 5: the master collects all labels and broadcasts them so every
	// worker can coalesce rows with labels.
	labelBytes := int64(len(labels)) * 4
	cl.PointToPoint("transform.labels", labelBytes)
	cl.Broadcast("transform.labels", labelBytes)
	report.LabelBroadcast = labelBytes

	// Assemble shards: sort received blocks by source offset (they are
	// contiguous row ranges) and merge down to MaxBlocks.
	shards := make([]*Shard, w)
	// Per-worker error slots: each worker writes only its own, so the
	// assembly stays race-free on a concurrent cluster.
	shardErrs := make([]error, w)
	cl.Parallel("transform.assemble", func(dst int) {
		recv := make([]*Block, 0, w)
		for src := 0; src < w; src++ {
			recv = append(recv, blocks[src][dst])
		}
		bs, err := NewBlockSet(recv)
		if err != nil {
			shardErrs[dst] = err
			return
		}
		bs.Merge(opts.MaxBlocks)
		shards[dst] = &Shard{
			Worker:   dst,
			Features: groups[dst],
			Data:     bs,
			Labels:   labels,
		}
	})
	if err := cluster.FirstError(shardErrs); err != nil {
		return nil, err
	}
	return &Result{Groups: groups, Binner: binner, Shards: shards, Bytes: report}, nil
}
