package partition

import (
	"fmt"

	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/sparse"
)

// TransformSharded is the rank-sharded variant of Transform: the caller
// already materialized only this rank's feature group (a column shard
// loaded by ingest.ReadCacheShard — x keeps the global shape but holds
// entries for the rank's columns only), so the transformation builds just
// the rank's own blockified shard and charges the repartition from the
// shard's replicated GroupNNZ matrix instead of walking remote data.
//
// The charge matrices are byte-identical to what Transform computes over
// the full image: each (source, destination) cell's row and entry counts
// come from the cache's column index (datasets.Shard.GroupNNZ), which
// every rank derives identically — a requirement, since charge-only
// collectives are realized as shadow frames on the distributed transport
// and rank-divergent volumes would desynchronize the mesh.
//
// Like TransformStreamed it requires ingestion-derived splits: a shard
// holds a fraction of the values, so candidate splits cannot be sketched
// from it.
func TransformSharded(cl *cluster.Cluster, x *sparse.CSR, labels []float32, sh *datasets.Shard, opts Options) (*Result, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	rows, d := x.Rows(), x.Cols()
	if rows != len(labels) {
		return nil, fmt.Errorf("partition: %d rows but %d labels", rows, len(labels))
	}
	if opts.Splits == nil || opts.FeatCount == nil {
		return nil, fmt.Errorf("partition: sharded transformation requires ingestion-derived splits (load shards from a .vbin cache)")
	}
	if len(opts.Splits) != d || len(opts.FeatCount) != d {
		return nil, fmt.Errorf("partition: prebin covers %d features, matrix has %d", len(opts.Splits), d)
	}
	w := cl.Workers()
	if sh.Workers != w {
		return nil, fmt.Errorf("partition: shard spans %d workers, cluster has %d", sh.Workers, w)
	}
	if len(sh.GroupNNZ) != w {
		return nil, fmt.Errorf("partition: shard carries a %dx? group matrix, want %dx%d", len(sh.GroupNNZ), w, w)
	}
	rank := sh.Rank
	ranges := HorizontalRanges(rows, w)
	var report ByteReport

	// Step 2 (warm): broadcast the ingestion-derived candidate splits.
	binner := &sparse.Binner{Splits: opts.Splits}
	var splitBytes int64
	for f := 0; f < d; f++ {
		splitBytes += int64(len(opts.Splits[f])) * 4
	}
	cl.Broadcast("transform.splits", splitBytes)
	report.SplitBroadcast = splitBytes

	// Step 3: column grouping (replicated — FeatCount is the full image's)
	// plus the rank's own blocks: one per source row range, holding the
	// rows of that range restricted to the rank's feature group. These are
	// exactly the blocks Transform would have shipped to this destination.
	groups := GroupColumnsBalanced(opts.FeatCount, w)
	slotOf := make([]int32, d)
	for slot, f := range groups[rank] {
		slotOf[f] = int32(slot)
	}
	own := make([]*Block, w)
	cl.ParallelLocal("transform.group", func(int) {
		for src := 0; src < w; src++ {
			lo, hi := ranges[src][0], ranges[src][1]
			b := &Block{RowStart: lo, RowPtr: make([]int64, 1, hi-lo+1)}
			for i := lo; i < hi; i++ {
				feats, vals := x.Row(i)
				for k, f := range feats {
					b.Feat = append(b.Feat, uint32(slotOf[f]))
					b.Bin = append(b.Bin, binner.BinValue(int(f), vals[k]))
				}
				b.RowPtr = append(b.RowPtr, int64(len(b.Feat)))
			}
			own[src] = b
		}
	})

	// Step 4: charge the selected repartition variant from the replicated
	// group matrix; report all three (formulas match TransformStreamed).
	naive := make([][]int64, w)
	compressed := make([][]int64, w)
	blockified := make([][]int64, w)
	binWidth := BinWidthBytes(opts.Q)
	for s := 0; s < w; s++ {
		naive[s] = make([]int64, w)
		compressed[s] = make([]int64, w)
		blockified[s] = make([]int64, w)
		nrows := int64(ranges[s][1] - ranges[s][0])
		for dst := 0; dst < w; dst++ {
			n := sh.GroupNNZ[s][dst]
			fw := FeatWidthBytes(len(groups[dst]))
			naive[s][dst] = n*naiveKVBytes + nrows*perObjectOverheadBytes
			compressed[s][dst] = n*(fw+binWidth) + nrows*perObjectOverheadBytes
			blockified[s][dst] = 16 + (nrows+1)*4 + n*(fw+binWidth)
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

	// Step 5: label gather + broadcast (labels ride full on every shard).
	labelBytes := int64(len(labels)) * 4
	cl.PointToPoint("transform.labels", labelBytes)
	cl.Broadcast("transform.labels", labelBytes)
	report.LabelBroadcast = labelBytes

	// Assemble the rank's shard only; the other slots stay nil, matching
	// the engine's hosted-only structures on a sharded cluster.
	bs, err := NewBlockSet(own)
	if err != nil {
		return nil, err
	}
	bs.Merge(opts.MaxBlocks)
	shards := make([]*Shard, w)
	shards[rank] = &Shard{
		Worker:   rank,
		Features: groups[rank],
		Data:     bs,
		Labels:   labels,
	}
	return &Result{Groups: groups, Binner: binner, Shards: shards, Bytes: report}, nil
}
