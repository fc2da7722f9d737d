package core

import (
	"fmt"
	"math/bits"
	"sync"

	"vero/internal/bitmap"
	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/histogram"
	"vero/internal/index"
	"vero/internal/partition"
)

// Out-of-core training. When the dataset is served by a
// datasets.BlockSource (an mmap-backed .vbin view) instead of a
// materialized matrix, the engines replace every data access with
// streamed block reads through a colStream: column scans arrive in
// fixed-size entry chunks, row stores are rebuilt block-by-block from the
// on-disk columns, and point probes become binary searches over the
// mapped column ranges. Resident scratch is bounded by Config.MemBudget.
//
// The invariant every streamed path preserves is bit-identity with the
// in-memory engines: chunking a sequential scan never reorders the
// additions flowing into any single accumulator, block transposition
// emits each row's entries in ascending global feature order (exactly the
// materialized CSR row order), and aggregation inputs and reduction order
// are unchanged — so the trained forest's encoded bytes match the
// in-memory run for any block size.

// defaultMemBudget bounds resident streaming scratch when Config.MemBudget
// is unset.
const defaultMemBudget int64 = 64 << 20

// minDerivedChunk floors the derived column-chunk size so a tiny budget
// cannot degrade scans to per-entry reads; explicit Config.BlockNNZ
// overrides may go all the way down to one entry (the block-boundary
// tests do).
const minDerivedChunk = 256

// colStream provides budgeted, chunked access to an out-of-core block
// source for every worker. Each worker owns scratch for one column chunk;
// read failures are sticky — the first error is recorded and the trainer
// aborts the run at the next tree boundary with a descriptive error
// instead of crashing mid-scan.
type colStream struct {
	src       datasets.BlockSource
	chunk     int // entries per column-chunk read
	blockRows int // rows per rebuilt row block
	perWorker int64

	inst [][]uint32
	bins [][]uint16

	mu  sync.Mutex
	err error
}

// newColStream sizes the streaming scratch from the configuration: the
// budget is split evenly between column-chunk scratch and row-block
// scratch across workers; explicit BlockNNZ/BlockRows override the
// derived sizes (tests use them to pin block-boundary edge cases).
func newColStream(src datasets.BlockSource, w int, cfg Config) *colStream {
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = defaultMemBudget
	}
	s := &colStream{src: src}
	// A column-chunk entry costs 6 bytes of scratch (uint32 instance +
	// uint16 bin). A quarter of the budget serves the column chunks and a
	// quarter the row blocks; the remaining half is headroom for
	// histograms and trainer state, so whole-run peak heap stays under
	// the budget rather than matching it.
	s.chunk = int(budget / 4 / int64(w) / 6)
	if s.chunk < minDerivedChunk {
		s.chunk = minDerivedChunk
	}
	if cfg.BlockNNZ > 0 {
		s.chunk = cfg.BlockNNZ
	}
	// Row blocks hold ~avgRowNNZ entries of 6 bytes plus an 8-byte row
	// pointer per row.
	rows, nnz := src.Rows(), src.NNZ()
	avgRowNNZ := int64(1)
	if rows > 0 && nnz > int64(rows) {
		avgRowNNZ = nnz / int64(rows)
	}
	s.blockRows = int(budget / 4 / int64(w) / (6*avgRowNNZ + 8))
	if s.blockRows < 1 {
		s.blockRows = 1
	}
	if cfg.BlockRows > 0 {
		s.blockRows = cfg.BlockRows
	}
	s.perWorker = budget / int64(w)
	s.inst = make([][]uint32, w)
	s.bins = make([][]uint16, w)
	for i := 0; i < w; i++ {
		s.inst[i] = make([]uint32, s.chunk)
		s.bins[i] = make([]uint16, s.chunk)
	}
	return s
}

// fail records the first streaming error; later errors are dropped.
func (s *colStream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// ok returns the sticky streaming error, if any.
func (s *colStream) ok() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// failed reports cheaply whether a streaming error was recorded.
func (s *colStream) failed() bool { return s.ok() != nil }

// scan streams the entry range [lo, hi) through fn in chunks, using
// worker w's scratch. When rebase is nonzero the instance ids are copied
// into scratch and shifted down by rebase (the horizontal quadrants index
// per-shard state with shard-local ids; the mapped view is read-only, so
// rebasing must not touch zero-copy slices). Returns false after
// recording a read failure.
func (s *colStream) scan(w int, lo, hi int64, rebase int, fn func(insts []uint32, bins []uint16)) bool {
	for lo < hi {
		n := hi - lo
		if n > int64(s.chunk) {
			n = int64(s.chunk)
		}
		ri, rb, err := s.src.Entries(lo, lo+n, s.inst[w], s.bins[w])
		if err != nil {
			s.fail(err)
			return false
		}
		if rebase != 0 && len(ri) > 0 {
			buf := s.inst[w][:len(ri)]
			if &buf[0] != &ri[0] {
				copy(buf, ri)
			}
			for k := range buf {
				buf[k] -= uint32(rebase)
			}
			ri = buf
		}
		fn(ri, rb)
		lo += n
	}
	return true
}

// search wraps SearchInst with sticky error recording; on failure it
// returns hi (an empty residual range).
func (s *colStream) search(lo, hi int64, inst uint32) int64 {
	pos, err := s.src.SearchInst(lo, hi, inst)
	if err != nil {
		s.fail(err)
		return hi
	}
	return pos
}

// entryRange returns the entry range of column col restricted to global
// rows [rowLo, rowHi).
func (s *colStream) entryRange(col, rowLo, rowHi int) (int64, int64) {
	lo, hi := s.src.ColRange(col)
	if rowLo > 0 {
		lo = s.search(lo, hi, uint32(rowLo))
	}
	if rowHi < s.src.Rows() {
		hi = s.search(lo, hi, uint32(rowHi))
	}
	return lo, hi
}

// lookup probes column col for instance inst — the streamed equivalent of
// searchColumn over a materialized column. On a read failure it reports
// the instance missing; the sticky error aborts the run at the tree
// boundary, so the garbage placement is never observed in a result.
func (s *colStream) lookup(col int, inst uint32) (uint16, bool) {
	lo, hi := s.src.ColRange(col)
	bin, found, err := s.src.LookupInst(lo, hi, inst)
	if err != nil {
		s.fail(err)
		return 0, false
	}
	return bin, found
}

// initStream validates the out-of-core configuration and sizes the
// streaming scratch. Called by prepare before the engine is constructed.
func (t *trainer) initStream() error {
	if !t.ds.OutOfCore() {
		return nil
	}
	if t.ds.Prebin == nil || !t.ds.Prebin.Quantized {
		return fmt.Errorf("core: out-of-core training requires a binned cache view with its prebin (map a .vbin cache)")
	}
	if t.cfg.Quadrant == QD3 && t.cfg.ColumnIndex == IndexColumnWise {
		return fmt.Errorf("core: the column-wise index (Yggdrasil) materializes whole columns and cannot stream; use the hybrid index for out-of-core QD3")
	}
	if t.cfg.Quadrant == QD4 && t.cfg.FullCopy {
		return fmt.Errorf("core: feature-parallel full copy replicates the dataset on every worker and cannot stream; disable FullCopy for out-of-core QD4")
	}
	t.stream = newColStream(t.ds.Blocks, t.w, t.cfg)
	return nil
}

// rowBlockBuilder rebuilds a row store block-by-block from the on-disk
// columns: per-column cursors advance through the global row range, and
// each block is a two-pass (count, scatter) transpose of the cursor
// segments. Columns are processed in ascending global feature id order,
// so each row's entries come out exactly as the materialized CSR stores
// them — the bit-identity requirement of the row-scan kernels.
type rowBlockBuilder struct {
	s            *colStream
	w            int
	rowLo, rowHi int
	cols         []int    // global feature ids, ascending
	emit         []uint32 // Feat value per column (global id or group slot)

	cur, end []int64 // per-column cursor / end of restricted range
	ends     []int64 // per-block segment ends scratch
	row      int     // next global row to emit

	rowPtr  []int64
	nextPos []int64
	feat    []uint32
	bin     []uint16
}

// newRowBlockBuilder prepares a builder over global rows [rowLo, rowHi)
// for the given columns; emit[i] is the feature value written for
// cols[i]'s entries.
func newRowBlockBuilder(s *colStream, w, rowLo, rowHi int, cols []int, emit []uint32) *rowBlockBuilder {
	return &rowBlockBuilder{
		s: s, w: w, rowLo: rowLo, rowHi: rowHi, cols: cols, emit: emit,
		cur:  make([]int64, len(cols)),
		end:  make([]int64, len(cols)),
		ends: make([]int64, len(cols)),
	}
}

// reset repositions every column cursor at the start of the row range.
func (b *rowBlockBuilder) reset() {
	for i, f := range b.cols {
		b.cur[i], b.end[i] = b.s.entryRange(f, b.rowLo, b.rowHi)
	}
	b.row = b.rowLo
}

// next assembles the next row block. It returns the block's first global
// row, local row pointers (rows [start, start+len(rowPtr)-1)), and the
// entry arrays; ok is false when the range is exhausted or a read failed.
// The returned slices are reused by the following next call.
func (b *rowBlockBuilder) next() (start int, rowPtr []int64, feat []uint32, bin []uint16, ok bool) {
	if b.row >= b.rowHi || b.s.failed() {
		return 0, nil, nil, nil, false
	}
	start = b.row
	end := start + b.s.blockRows
	if end > b.rowHi {
		end = b.rowHi
	}
	nrows := end - start

	if cap(b.rowPtr) < nrows+1 {
		b.rowPtr = make([]int64, nrows+1)
		b.nextPos = make([]int64, nrows)
	}
	b.rowPtr = b.rowPtr[:nrows+1]
	b.nextPos = b.nextPos[:nrows]
	clear(b.rowPtr)

	// Pass 1: count each row's entries across the column segments that
	// fall inside the block (rowPtr[r+1] accumulates row r's count).
	for i := range b.cols {
		b.ends[i] = b.s.search(b.cur[i], b.end[i], uint32(end))
		if !b.s.scan(b.w, b.cur[i], b.ends[i], 0, func(insts []uint32, _ []uint16) {
			for _, inst := range insts {
				b.rowPtr[int(inst)-start+1]++
			}
		}) {
			return 0, nil, nil, nil, false
		}
	}
	for r := 0; r < nrows; r++ {
		b.rowPtr[r+1] += b.rowPtr[r]
	}
	total := b.rowPtr[nrows]
	if int64(cap(b.feat)) < total {
		b.feat = make([]uint32, total)
		b.bin = make([]uint16, total)
	}
	b.feat = b.feat[:total]
	b.bin = b.bin[:total]

	// Pass 2: scatter, ascending feature order within each row.
	copy(b.nextPos, b.rowPtr[:nrows])
	for i := range b.cols {
		ev := b.emit[i]
		if !b.s.scan(b.w, b.cur[i], b.ends[i], 0, func(insts []uint32, binsArr []uint16) {
			for k, inst := range insts {
				r := int(inst) - start
				p := b.nextPos[r]
				b.feat[p] = ev
				b.bin[p] = binsArr[k]
				b.nextPos[r] = p + 1
			}
		}) {
			return 0, nil, nil, nil, false
		}
		b.cur[i] = b.ends[i]
	}
	b.row = end
	return start, b.rowPtr, b.feat, b.bin, true
}

// allFeatures returns [0..d) with identity emit values — the column set
// of a horizontal row shard (all features, global ids).
func allFeatures(d int) (cols []int, emit []uint32) {
	cols = make([]int, d)
	emit = make([]uint32, d)
	for f := 0; f < d; f++ {
		cols[f] = f
		emit[f] = uint32(f)
	}
	return cols, emit
}

// ---- horizontal engine, streamed (QD1/QD2) ----

// prepareStreamed sets up the horizontal quadrants without materializing
// shards: indexes cover the worker row ranges, and the data gauge charges
// the per-worker streaming scratch budget instead of shard bytes.
func (e *horizontalEngine) prepareStreamed() error {
	t := e.t
	if _, err := t.distributedSketch(); err != nil {
		return err
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.flatG = make([][]float64, t.w)
	e.flatH = make([][]float64, t.w)
	e.layout = histogram.UniformLayout(t.d, t.maxBins, t.c)
	e.agg = make(map[int32]*histogram.Hist)
	dataGauge := t.cl.Stats().Mem("data")
	if t.cfg.Quadrant == QD2 {
		e.n2i = make([]*index.NodeToInstance, t.w)
		e.blocks = make([]*rowBlockBuilder, t.w)
		cols, emit := allFeatures(t.d)
		// ParallelLocal: on a distributed cluster each rank builds only its
		// hosted worker's index and block builder — the aggregation path
		// (sumLocalInto) requires the locals' shape to match the hosting.
		t.cl.ParallelLocal("prep.bin", func(w int) {
			lo, hi := t.ranges[w][0], t.ranges[w][1]
			e.n2i[w] = index.NewNodeToInstance(hi - lo)
			e.blocks[w] = newRowBlockBuilder(t.stream, w, lo, hi, cols, emit)
			dataGauge.Set(w, t.stream.perWorker)
		})
		return t.stream.ok()
	}
	e.i2n = make([]*index.InstanceToNode, t.w)
	t.cl.ParallelLocal("prep.bin", func(w int) {
		lo, hi := t.ranges[w][0], t.ranges[w][1]
		e.i2n[w] = index.NewInstanceToNode(hi - lo)
		dataGauge.Set(w, t.stream.perWorker)
	})
	return t.stream.ok()
}

// buildHistogramsStreamedQD2 is buildHistograms for streamed QD2,
// restructured block-outer/node-inner: each worker rebuilds its row
// blocks once per layer and advances every build node's instance cursor
// through them, so the data is read once regardless of the node count.
// Per node the accumulation order (ascending instances, CSR row order
// within) and the per-node aggregation order over workers are exactly the
// in-memory ones, so the result is bit-identical.
func (e *horizontalEngine) buildHistogramsStreamedQD2(toBuild []*nodeInfo) {
	t := e.t
	locals := make([][]*histogram.Hist, len(toBuild))
	for i := range locals {
		locals[i] = make([]*histogram.Hist, t.w)
	}
	t.cl.ParallelLocal(phaseHist, func(w int) {
		base := t.ranges[w][0]
		insts := make([][]uint32, len(toBuild))
		pos := make([]int, len(toBuild))
		for i, nd := range toBuild {
			locals[i][w] = t.pool.Get(e.layout)
			insts[i] = e.n2i[w].Instances(nd.id)
		}
		b := e.blocks[w]
		b.reset()
		for {
			start, rowPtr, feat, bin, ok := b.next()
			if !ok {
				break
			}
			localStart := start - base
			localEnd := localStart + len(rowPtr) - 1
			for i := range toBuild {
				list := insts[i]
				k := pos[i]
				from := k
				for k < len(list) && int(list[k]) < localEnd {
					k++
				}
				pos[i] = k
				locals[i][w].RowScan(list[from:k], localStart, rowPtr, feat, bin, t.grads, t.hessv, base)
			}
		}
	})
	for i, nd := range toBuild {
		e.aggregate(nd.id, locals[i])
		for _, h := range locals[i] {
			if h != nil { // distributed ranks fill only their hosted slot
				t.pool.Put(h)
			}
		}
	}
}

// buildHistogramsStreamedQD1 is the streamed QD1 pass: identical routed
// column-scan structure, with each worker's column restricted to its row
// range by two binary searches and streamed in chunks. Chunking preserves
// the per-accumulator addition order, and the worker-order merge is
// unchanged, so the aggregated histograms are bit-identical.
func (e *horizontalEngine) buildHistogramsStreamedQD1(toBuild []*nodeInfo, slot []int32, acc []*histogram.Hist, merged []chan struct{}) {
	t := e.t
	t.cl.ParallelLocal(phaseHist, func(w int) {
		stride := e.layout.FloatsPerSide()
		ag, ah := e.flatScratch(w, stride*len(toBuild))
		nodeOf := e.i2n[w].Assignments()
		base := t.ranges[w][0]
		rowLo, rowHi := t.ranges[w][0], t.ranges[w][1]
		for j := 0; j < t.d && !t.stream.failed(); j++ {
			lo, hi := t.stream.entryRange(j, rowLo, rowHi)
			t.stream.scan(w, lo, hi, base, func(insts []uint32, bins []uint16) {
				histogram.ColumnScanRouted(ag, ah, stride, e.layout, j, insts, bins, nodeOf, slot, t.grads, t.hessv, base)
			})
		}
		// A distributed rank hosts one worker; its predecessor's channel is
		// never closed locally (the AllReduce below replaces the chain).
		if w > 0 && t.cl.HostsWorker(w-1) {
			<-merged[w-1]
		}
		for i := range acc {
			acc[i].Merge(&histogram.Hist{Layout: e.layout,
				Grad: ag[i*stride : (i+1)*stride], Hess: ah[i*stride : (i+1)*stride]})
		}
		close(merged[w])
	})
}

// applyLayerStreamed updates the horizontal indexes with split-feature
// probes served by binary searches over the mapped columns (global
// instance ids); the placement decisions are the same booleans the
// materialized shards produce.
func (e *horizontalEngine) applyLayerStreamed(splits map[int32]resolvedSplit, children map[int32][2]int32) {
	t := e.t
	t.cl.Broadcast(phaseNode, int64(len(splits))*splitWireBytes)
	if t.cfg.Quadrant == QD2 {
		t.cl.ParallelLocal(phaseNode, func(w int) {
			base := t.ranges[w][0]
			for parent, ch := range children {
				sp := splits[parent]
				e.n2i[w].Split(parent, ch[0], ch[1], func(inst uint32) bool {
					bin, ok := t.stream.lookup(sp.feature, uint32(base)+inst)
					if !ok {
						return sp.defaultLeft
					}
					return int(bin) <= sp.bin
				})
			}
		})
		return
	}
	t.cl.ParallelLocal(phaseNode, func(w int) {
		base := t.ranges[w][0]
		i2n := e.i2n[w]
		i2n.SplitLayer(children, func(inst uint32) bool {
			sp := splits[i2n.Node(inst)]
			bin, ok := t.stream.lookup(sp.feature, uint32(base)+inst)
			if !ok {
				return sp.defaultLeft
			}
			return int(bin) <= sp.bin
		})
	})
}

// ---- vertical engine, streamed (QD3 hybrid / QD4 Vero) ----

// prepareStreamedQD3 mirrors the QD3 preparation without materializing
// the per-worker column shards: groups, indexes and charges are identical
// (the repartition shuffle is charged from the source's entry count), but
// column data stays on disk.
func (e *verticalEngine) prepareStreamedQD3() error {
	t := e.t
	featCount, err := t.distributedSketch()
	if err != nil {
		return err
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.groups = partition.GroupColumnsBalanced(featCount, t.w)
	e.buildFeatureMaps()
	dataGauge := t.cl.Stats().Mem("data")
	e.allocWorkers()
	e.i2n = make([]*index.InstanceToNode, t.w)
	t.cl.Parallel("prep.bin", func(w int) {
		e.initWorker(w)
		e.i2n[w] = index.NewInstanceToNode(t.n)
		dataGauge.Set(w, t.stream.perWorker+int64(t.n)*4)
	})
	shuffleBytes := t.ds.NNZ() * 12 * int64(t.w-1) / int64(t.w)
	t.cl.ChargeComm("prep.repartition", cluster.OpShuffle, shuffleBytes, t.commSeconds(shuffleBytes, t.w-1))
	t.cl.Broadcast("prep.labels", int64(t.n)*4)
	return t.stream.ok()
}

// prepareStreamedVero mirrors prepareVero: the transformation's grouping
// and wire charges are computed from the mapped columns
// (partition.TransformStreamed), and each worker gets a row-block builder
// over its feature group instead of materialized shards. Group feature
// lists are ascending (GroupColumnsBalanced sorts them), so rebuilt rows
// list slots in ascending global feature order — the order the
// materialized transformation stores.
func (e *verticalEngine) prepareStreamedVero() error {
	t := e.t
	pb, err := t.usablePrebin()
	if err != nil {
		return err
	}
	if pb == nil {
		return fmt.Errorf("core: out-of-core QD4 requires ingestion-derived splits (train from a .vbin cache)")
	}
	res, err := partition.TransformStreamed(t.cl, t.ds.Blocks, t.ds.Labels, partition.Options{
		Q:         t.cfg.Splits,
		SketchEps: t.cfg.SketchEps,
		Charge:    t.cfg.TransformCharge,
		Splits:    pb.Splits,
		FeatCount: pb.FeatCount,
	})
	if err != nil {
		return err
	}
	t.binner = res.Binner
	e.groups = res.Groups
	e.transformBytes = res.Bytes
	e.buildFeatureMaps()
	t.numBinsGlobal = make([]int, t.d)
	for f := range t.binner.Splits {
		t.numBinsGlobal[f] = len(t.binner.Splits[f])
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.allocWorkers()
	e.blocks = make([]*rowBlockBuilder, t.w)
	dataGauge := t.cl.Stats().Mem("data")
	for w := 0; w < t.w; w++ {
		e.initWorker(w)
		emit := make([]uint32, len(e.groups[w]))
		for slot := range emit {
			emit[slot] = uint32(slot)
		}
		e.blocks[w] = newRowBlockBuilder(t.stream, w, 0, t.n, e.groups[w], emit)
		dataGauge.Set(w, t.stream.perWorker+int64(t.n)*4)
	}
	return t.stream.ok()
}

// buildHistogramsStreamedVertical builds a layer's histograms for the
// streamed vertical quadrants, all build nodes at once; layerSplits then
// derives, searches and releases them. QD4 runs block-outer/node-inner
// over rebuilt row blocks (one data pass per layer); QD3 runs the hybrid
// per-node plan with streamed linear scans and mapped binary probes. Both
// preserve the in-memory accumulation order exactly.
func (e *verticalEngine) buildHistogramsStreamedVertical(toBuild []*nodeInfo) {
	t := e.t
	mem := t.cl.Stats().Mem("histogram")
	t.cl.Parallel(phaseHist, func(w int) {
		hs := make([]*histogram.Hist, len(toBuild))
		for i := range hs {
			hs[i] = t.pool.Get(e.layout[w])
		}
		if t.cfg.Quadrant == QD4 {
			e.buildRowStoreStreamed(w, toBuild, hs)
		} else {
			for i, nd := range toBuild {
				e.buildHybridStreamed(w, nd, hs[i])
			}
		}
		if !t.cl.HostsWorker(w) {
			// A distributed rank runs this build for every worker, but
			// only its hosted worker derives and searches: release the
			// others' histograms at once.
			for _, h := range hs {
				t.pool.Put(h)
			}
			return
		}
		for i, nd := range toBuild {
			e.hist[w][nd.id] = hs[i]
			mem.Add(w, e.layout[w].SizeBytes())
		}
	})
}

// buildRowStoreStreamed advances every build node's (ascending) instance
// cursor through the worker's rebuilt row blocks — the streamed analogue
// of buildRowStore's per-block segment scans, covering all build nodes in
// one data pass.
func (e *verticalEngine) buildRowStoreStreamed(w int, toBuild []*nodeInfo, hs []*histogram.Hist) {
	t := e.t
	insts := make([][]uint32, len(toBuild))
	pos := make([]int, len(toBuild))
	for i, nd := range toBuild {
		insts[i] = e.n2i[w].Instances(nd.id)
	}
	b := e.blocks[w]
	b.reset()
	for {
		start, rowPtr, feat, bin, ok := b.next()
		if !ok {
			return
		}
		end := start + len(rowPtr) - 1
		for i := range toBuild {
			list := insts[i]
			k := pos[i]
			from := k
			for k < len(list) && int(list[k]) < end {
				k++
			}
			pos[i] = k
			hs[i].RowScan(list[from:k], start, rowPtr, feat, bin, t.grads, t.hessv, 0)
		}
	}
}

// buildHybridStreamed is buildHybrid over mapped columns: the same
// cost test chooses between a chunked linear scan and per-instance
// binary probes, with identical accumulation order in both arms.
func (e *verticalEngine) buildHybridStreamed(w int, nd *nodeInfo, h *histogram.Hist) {
	t := e.t
	nodeOf := e.i2n[w].Assignments()
	nodeInsts := e.n2i[w].Instances(nd.id)
	for _, f := range e.groups[w] {
		j := int(e.slotOf[f])
		lo, hi := t.stream.src.ColRange(f)
		colLen := int(hi - lo)
		if colLen == 0 {
			continue
		}
		if t.stream.failed() {
			return
		}
		searchCost := len(nodeInsts) * (bits.Len(uint(colLen)) + 1)
		if colLen <= searchCost {
			t.stream.scan(w, lo, hi, 0, func(insts []uint32, binsArr []uint16) {
				h.ColumnScanNode(j, insts, binsArr, nodeOf, nd.id, t.grads, t.hessv)
			})
			continue
		}
		for _, inst := range nodeInsts {
			bin, ok := t.stream.lookup(f, inst)
			if !ok {
				continue
			}
			h.AddFlat(j, int(bin), t.grads, t.hessv, int(inst)*t.c)
		}
	}
}

// fillPlacementStreamed writes one splitting node's placement bits from
// the mapped split-feature column: QD4 probes each node instance by
// binary search, QD3 streams the column linearly with node-membership
// checks — the same decisions the materialized shards produce.
func (e *verticalEngine) fillPlacementStreamed(w int, parent int32, sp resolvedSplit, bm *bitmap.Bitmap) {
	t := e.t
	insts := e.n2i[w].Instances(parent)
	if sp.defaultLeft {
		for _, inst := range insts {
			bm.Set(int(inst))
		}
	}
	if t.cfg.Quadrant == QD4 {
		for _, inst := range insts {
			bin, ok := t.stream.lookup(sp.feature, inst)
			if !ok {
				continue // stays at the default direction
			}
			bm.SetTo(int(inst), int(bin) <= sp.bin)
		}
		return
	}
	lo, hi := t.stream.src.ColRange(sp.feature)
	i2n := e.i2n[w]
	t.stream.scan(w, lo, hi, 0, func(colInsts []uint32, binsArr []uint16) {
		for k, inst := range colInsts {
			if i2n.Node(inst) != parent {
				continue
			}
			bm.SetTo(int(inst), int(binsArr[k]) <= sp.bin)
		}
	})
}
