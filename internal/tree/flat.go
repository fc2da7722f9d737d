// Flattened forest representation for low-latency inference.
//
// Training produces a Forest of per-tree Node slices whose JSON-tagged
// nodes carry per-node weight slices and diagnostic fields. That layout is
// convenient for growing and serializing trees but hostile to the serving
// hot path: every node visit chases a slice header, every feature probe
// binary-searches the sparse row, and every leaf allocates nothing but
// touches scattered cache lines.
//
// FlatForest compiles a trained Forest once into structure-of-arrays form:
// feature ids, thresholds, child links, default directions and leaf
// weights each live in one contiguous slice shared by every tree, and
// rows are scattered into a dense per-goroutine scratch so routing probes
// features in O(1). The compiled engine produces bit-exact the same
// margins as the pointer walk (identical routing predicate, identical
// accumulation order) and is safe for concurrent use.
package tree

import (
	"fmt"
	"runtime"
	"sync"

	"vero/internal/sparse"
)

// FlatForest is an immutable, cache-friendly compilation of a Forest.
// All exported methods are safe for concurrent use.
type FlatForest struct {
	numClass  int
	initScore []float64
	// scratchDim is 1 + the largest feature id any split routes on; a
	// dense scratch of this size suffices regardless of NumFeature.
	scratchDim int

	// Structure-of-arrays node storage, all trees concatenated. Node i is
	// a leaf when feature[i] < 0, in which case left[i] is the offset of
	// its weight block in weights (stride numClass) and right[i] is
	// unused. Interior nodes hold absolute child indexes.
	feature     []int32
	threshold   []float32
	splitBin    []uint16 // histogram-bin index of threshold (0 on leaves)
	left        []int32
	right       []int32
	defaultLeft []bool
	// weights holds leaf outputs pre-scaled by the learning rate, so
	// accumulation is a single fused add per class.
	weights []float64

	// roots[t] is the absolute index of tree t's root.
	roots []int32

	// Blocked-traversal support: remap[f] is the compact id of global
	// feature f among the numSplitFeat features any split routes on, or -1
	// when no split uses f. blockFeat mirrors feature with compact ids (0
	// on leaves), so the blocked walk probes a dense numSplitFeat-wide row
	// image instead of a scratchDim-wide one — the block scratch stays
	// small even for high-dimensional sparse data. nav[2i] and nav[2i+1]
	// are node i's left/right children, with leaves self-looping, so the
	// level-synchronous descent needs no leaf branch; treeSteps[t] is the
	// number of descent steps that provably lands every row of tree t on a
	// leaf (the tree's interior depth).
	remap        []int32
	blockFeat    []int32
	nav          []int32
	treeSteps    []int32
	numSplitFeat int

	scratch      sync.Pool
	blockScratch sync.Pool
}

// flatScratch is a per-goroutine dense view of one sparse row.
type flatScratch struct {
	val     []float32
	present []bool
	touched []int32
}

// Compile flattens a trained forest. The forest must not be mutated
// afterwards; the compiled engine captures its current trees.
func Compile(f *Forest) *FlatForest {
	ff := &FlatForest{
		numClass:  f.NumClass,
		initScore: append([]float64(nil), f.InitScore...),
		roots:     make([]int32, 0, len(f.Trees)),
	}
	total := 0
	for _, t := range f.Trees {
		total += len(t.Nodes)
	}
	ff.feature = make([]int32, 0, total)
	ff.threshold = make([]float32, 0, total)
	ff.splitBin = make([]uint16, 0, total)
	ff.left = make([]int32, 0, total)
	ff.right = make([]int32, 0, total)
	ff.defaultLeft = make([]bool, 0, total)

	maxFeat := int32(-1)
	for _, t := range f.Trees {
		base := int32(len(ff.feature))
		ff.roots = append(ff.roots, base)
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.IsLeaf() {
				off := int32(len(ff.weights))
				ff.feature = append(ff.feature, -1)
				ff.threshold = append(ff.threshold, 0)
				ff.splitBin = append(ff.splitBin, 0)
				ff.left = append(ff.left, off)
				ff.right = append(ff.right, NoChild)
				ff.defaultLeft = append(ff.defaultLeft, false)
				for k := 0; k < f.NumClass; k++ {
					w := 0.0
					if k < len(n.Weights) {
						w = f.LearningRate * n.Weights[k]
					}
					ff.weights = append(ff.weights, w)
				}
				continue
			}
			if n.Feature > maxFeat {
				maxFeat = n.Feature
			}
			ff.feature = append(ff.feature, n.Feature)
			ff.threshold = append(ff.threshold, n.SplitValue)
			ff.splitBin = append(ff.splitBin, n.SplitBin)
			ff.left = append(ff.left, base+n.Left)
			ff.right = append(ff.right, base+n.Right)
			ff.defaultLeft = append(ff.defaultLeft, n.DefaultLeft)
		}
	}
	ff.scratchDim = int(maxFeat) + 1
	ff.scratch.New = func() any {
		return &flatScratch{
			val:     make([]float32, ff.scratchDim),
			present: make([]bool, ff.scratchDim),
			touched: make([]int32, 0, 64),
		}
	}

	// Compact feature ids for the blocked kernel: number split features in
	// first-use order, mirror the node array with compact ids (leaves probe
	// cell 0 harmlessly — their nav children self-loop), and record how
	// many descent steps land every row of each tree on a leaf.
	ff.remap = make([]int32, ff.scratchDim)
	for i := range ff.remap {
		ff.remap[i] = -1
	}
	ff.blockFeat = make([]int32, len(ff.feature))
	ff.nav = make([]int32, 2*len(ff.feature))
	for i, f := range ff.feature {
		if f < 0 {
			ff.nav[2*i] = int32(i)
			ff.nav[2*i+1] = int32(i)
			continue
		}
		if ff.remap[f] < 0 {
			ff.remap[f] = int32(ff.numSplitFeat)
			ff.numSplitFeat++
		}
		ff.blockFeat[i] = ff.remap[f]
		ff.nav[2*i] = ff.left[i]
		ff.nav[2*i+1] = ff.right[i]
	}
	ff.treeSteps = make([]int32, len(ff.roots))
	for t, root := range ff.roots {
		ff.treeSteps[t] = ff.interiorDepth(root)
	}
	ff.blockScratch.New = func() any { return &blockImage{} }
	return ff
}

// interiorDepth returns the longest root-to-leaf path from root in
// interior-node steps (0 for a leaf).
func (ff *FlatForest) interiorDepth(root int32) int32 {
	if ff.feature[root] < 0 {
		return 0
	}
	l := ff.interiorDepth(ff.left[root])
	r := ff.interiorDepth(ff.right[root])
	if r > l {
		l = r
	}
	return l + 1
}

// NumClass returns the per-row output dimensionality.
func (ff *FlatForest) NumClass() int { return ff.numClass }

// NumTrees returns the number of compiled trees.
func (ff *FlatForest) NumTrees() int { return len(ff.roots) }

// NumNodes returns the total node count across all trees.
func (ff *FlatForest) NumNodes() int { return len(ff.feature) }

// scatter loads a sparse row into the dense scratch. Features beyond
// scratchDim are never routed on by any split and are skipped.
func (s *flatScratch) scatter(feat []uint32, val []float32, dim int) {
	for i, f := range feat {
		if int(f) >= dim {
			continue
		}
		s.val[f] = val[i]
		s.present[f] = true
		s.touched = append(s.touched, int32(f))
	}
}

// clear resets only the entries scatter touched.
func (s *flatScratch) clear() {
	for _, f := range s.touched {
		s.present[f] = false
	}
	s.touched = s.touched[:0]
}

// predictScattered walks every tree for the row currently loaded in s and
// accumulates the pre-scaled leaf weights into out (length numClass).
func (ff *FlatForest) predictScattered(s *flatScratch, out []float64) {
	for _, root := range ff.roots {
		id := root
		for {
			f := ff.feature[id]
			if f < 0 {
				w := ff.weights[ff.left[id] : ff.left[id]+int32(ff.numClass)]
				for k := range w {
					out[k] += w[k]
				}
				break
			}
			if s.present[f] {
				if s.val[f] <= ff.threshold[id] {
					id = ff.left[id]
				} else {
					id = ff.right[id]
				}
			} else if ff.defaultLeft[id] {
				id = ff.left[id]
			} else {
				id = ff.right[id]
			}
		}
	}
}

// PredictRowInto computes the raw scores (margins) of one sparse row into
// out, which must have length NumClass.
func (ff *FlatForest) PredictRowInto(feat []uint32, val []float32, out []float64) {
	copy(out, ff.initScore)
	s := ff.scratch.Get().(*flatScratch)
	s.scatter(feat, val, ff.scratchDim)
	ff.predictScattered(s, out)
	s.clear()
	ff.scratch.Put(s)
}

// PredictRow returns the raw scores (margins) of one sparse row.
func (ff *FlatForest) PredictRow(feat []uint32, val []float32) []float64 {
	out := make([]float64, ff.numClass)
	ff.PredictRowInto(feat, val, out)
	return out
}

// batchRows is the number of rows one parallel work unit claims; large
// enough to amortize scheduling, small enough to balance skewed rows.
const batchRows = 256

// PredictCSR returns the raw scores of every row of m, row-major with
// stride NumClass, computed by `workers` goroutines (0 or negative means
// GOMAXPROCS).
func (ff *FlatForest) PredictCSR(m *sparse.CSR, workers int) []float64 {
	rows := m.Rows()
	out := make([]float64, rows*ff.numClass)
	if rows == 0 {
		return out
	}
	parallelRowRanges(rows, batchRows, workers, func(lo, hi int) {
		ff.predictRange(rowSource{csr: m}, lo, hi, out)
	})
	return out
}

// parallelRowRanges invokes fn over [lo, hi) chunks of `chunk` rows from
// `workers` goroutines (0 or negative means GOMAXPROCS; the worker count
// never exceeds the chunk count, and a single worker runs inline).
func parallelRowRanges(rows, chunk, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (rows + chunk - 1) / chunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	next := make(chan int)
	go func() {
		for lo := 0; lo < rows; lo += chunk {
			next <- lo
		}
		close(next)
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lo := range next {
				hi := lo + chunk
				if hi > rows {
					hi = rows
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// predictRange scores rows [lo, hi) with one scratch.
func (ff *FlatForest) predictRange(m rowSource, lo, hi int, out []float64) {
	s := ff.scratch.Get().(*flatScratch)
	for i := lo; i < hi; i++ {
		row := out[i*ff.numClass : (i+1)*ff.numClass]
		copy(row, ff.initScore)
		feat, val := m.Row(i)
		s.scatter(feat, val, ff.scratchDim)
		ff.predictScattered(s, row)
		s.clear()
	}
	ff.scratch.Put(s)
}

// Blocked batch traversal.
//
// The per-row walk streams every tree's node arrays once per row: for a
// forest larger than L1/L2 each node visit is a cache miss. The blocked
// kernel inverts the loop nest — it scatters a block of rows into one
// dense block image, then walks the forest tree-by-tree over the whole
// block, so one tree's nodes (a few cache lines) are reused across every
// row of the block. Per row the trees still accumulate in forest order
// with the identical routing predicate, so margins are bit-identical to
// PredictRow.

// DefaultBlockRows is the instance-block size batch prediction uses when
// the caller does not choose one: big enough that a tree's nodes amortize
// over the block, small enough that the block image stays cache-resident.
const DefaultBlockRows = 64

// maxBlockCells caps the block image at blockRows*numSplitFeat cells so a
// huge forest (many distinct split features) degrades to smaller blocks
// instead of a giant scratch allocation.
const maxBlockCells = 1 << 22

// blockedMinRows is the batch size below which the blocked kernel falls
// back to the per-row walk: the lock-step descent only pays off once
// enough independent rows are in flight per level.
const blockedMinRows = 16

// blockImage is a dense row-major image of one instance block: cell
// r*numSplitFeat+g holds the value of the block's r-th row for compact
// feature g. ids holds each row's current node during the
// level-synchronous descent.
type blockImage struct {
	val     []float32
	present []bool
	touched []int32
	ids     []int32
}

// ensure sizes the image for cells entries and rows ids, keeping capacity
// across uses.
func (s *blockImage) ensure(cells, rows int) {
	if cap(s.val) < cells {
		s.val = make([]float32, cells)
		s.present = make([]bool, cells)
	}
	s.val = s.val[:cells]
	s.present = s.present[:cells]
	if cap(s.ids) < rows {
		s.ids = make([]int32, rows)
	}
	s.ids = s.ids[:rows]
}

// clear resets only the touched cells.
func (s *blockImage) clear() {
	for _, p := range s.touched {
		s.present[p] = false
	}
	s.touched = s.touched[:0]
}

// rowSource is a batch in either input form the kernels score: a CSR
// matrix, or parallel per-row feature/value slices. It is a concrete
// value, so passing one boxes nothing and a warm scoring call allocates
// nothing.
type rowSource struct {
	csr   *sparse.CSR
	feats [][]uint32
	vals  [][]float32
}

// Row returns row i's feature ids and values.
func (s rowSource) Row(i int) (feat []uint32, val []float32) {
	if s.csr != nil {
		return s.csr.Row(i)
	}
	return s.feats[i], s.vals[i]
}

// blockSize clamps a requested block size to [1, maxBlockCells/F].
func (ff *FlatForest) blockSize(block int) int {
	if block <= 0 {
		block = DefaultBlockRows
	}
	if f := ff.numSplitFeat; f > 0 && block*f > maxBlockCells {
		block = maxBlockCells / f
		if block < 1 {
			block = 1
		}
	}
	return block
}

// PredictBlock scores a batch of independent sparse rows (parallel
// feature-id/value slices per row, sorted by feature id) into out
// (row-major, stride NumClass) on the calling goroutine, processing
// instance blocks of `block` rows (<=0 means DefaultBlockRows)
// tree-by-tree. Margins are bit-identical to PredictRow on every row.
func (ff *FlatForest) PredictBlock(feats [][]uint32, vals [][]float32, out []float64, block int) {
	ff.predictBlockRange(rowSource{feats: feats, vals: vals}, 0, len(feats), out, block)
}

// PredictCSRBlocked is PredictCSR through the blocked kernel: raw scores
// for every row of m, row-major with stride NumClass, computed by
// `workers` goroutines (0 or negative means GOMAXPROCS) over instance
// blocks of `block` rows.
func (ff *FlatForest) PredictCSRBlocked(m *sparse.CSR, workers, block int) []float64 {
	rows := m.Rows()
	out := make([]float64, rows*ff.numClass)
	if rows == 0 {
		return out
	}
	block = ff.blockSize(block)
	// A parallel work unit is a whole number of blocks.
	chunk := ((batchRows + block - 1) / block) * block
	parallelRowRanges(rows, chunk, workers, func(lo, hi int) {
		ff.predictBlockRange(rowSource{csr: m}, lo, hi, out, block)
	})
	return out
}

// predictBlockRange scores rows [lo, hi) of rows into out with one block
// image, block rows at a time.
func (ff *FlatForest) predictBlockRange(rows rowSource, lo, hi int, out []float64, block int) {
	// Tiny batches pay the level-synchronous walk's lock-step overhead
	// without amortizing it; the per-row walk (bit-identical) is faster.
	if hi-lo < blockedMinRows {
		ff.predictRange(rows, lo, hi, out)
		return
	}
	block = ff.blockSize(block)
	s := ff.blockScratch.Get().(*blockImage)
	s.ensure(block*ff.numSplitFeat, block)
	f := ff.numSplitFeat
	for b0 := lo; b0 < hi; b0 += block {
		b1 := b0 + block
		if b1 > hi {
			b1 = hi
		}
		for i := b0; i < b1; i++ {
			base := int32((i - b0) * f)
			feat, val := rows.Row(i)
			for j, ft := range feat {
				if int(ft) >= len(ff.remap) {
					continue
				}
				g := ff.remap[ft]
				if g < 0 {
					continue
				}
				s.val[base+g] = val[j]
				s.present[base+g] = true
				s.touched = append(s.touched, base+g)
			}
			copy(out[i*ff.numClass:(i+1)*ff.numClass], ff.initScore)
		}
		if ff.numClass == 1 {
			ff.walkBlockScalar(s, out[b0:b1])
		} else {
			ff.walkBlockVec(s, out[b0*ff.numClass:b1*ff.numClass], b1-b0)
		}
		s.clear()
	}
	ff.blockScratch.Put(s)
}

// descendBlock advances every row of the block through one tree: all rows
// start at the tree's root and take steps lock-step levels down, leaves
// self-looping via nav, so after steps iterations every row sits on its
// leaf. The level loop's body has no leaf branch and its row iterations
// are independent, which lets the CPU overlap the dependent node/image
// loads of many rows — this instruction-level parallelism, not just cache
// reuse, is where the blocked kernel's throughput comes from. The routing
// predicate is exactly the per-row walk's: present ? val<=threshold :
// defaultLeft.
func (ff *FlatForest) descendBlock(s *blockImage, rows int, root, steps int32) {
	blockFeat, threshold, defaultLeft, nav := ff.blockFeat, ff.threshold, ff.defaultLeft, ff.nav
	val, present := s.val, s.present
	f := ff.numSplitFeat
	ids := s.ids[:rows]
	for r := range ids {
		ids[r] = root
	}
	for d := int32(0); d < steps; d++ {
		base := 0
		for r := range ids {
			id := int(ids[r])
			p := base + int(blockFeat[id])
			// Three conditional moves, no data-dependent branches: routed
			// child when the feature is present, default child otherwise.
			l, rt := nav[2*id], nav[2*id+1]
			routed := rt
			if val[p] <= threshold[id] {
				routed = l
			}
			next := rt
			if defaultLeft[id] {
				next = l
			}
			if present[p] {
				next = routed
			}
			ids[r] = next
			base += f
		}
	}
}

// walkBlockScalar is the numClass==1 fast path: per tree, descend the
// whole block, then fold the leaf weights with a scalar accumulator per
// row and no weight sub-slicing.
func (ff *FlatForest) walkBlockScalar(s *blockImage, out []float64) {
	left, weights := ff.left, ff.weights
	for t, root := range ff.roots {
		ff.descendBlock(s, len(out), root, ff.treeSteps[t])
		for r := range out {
			out[r] += weights[left[s.ids[r]]]
		}
	}
}

// walkBlockVec is the multiclass path: identical descent, vector
// accumulation per leaf.
func (ff *FlatForest) walkBlockVec(s *blockImage, out []float64, rows int) {
	left, weights := ff.left, ff.weights
	k := ff.numClass
	for t, root := range ff.roots {
		ff.descendBlock(s, rows, root, ff.treeSteps[t])
		for r := 0; r < rows; r++ {
			w := weights[left[s.ids[r]] : left[s.ids[r]]+int32(k)]
			orow := out[r*k : r*k+k]
			for c := range w {
				orow[c] += w[c]
			}
		}
	}
}

// Validate checks structural invariants of the compiled forest; it is used
// by tests and by model-loading paths that compile untrusted input.
func (ff *FlatForest) Validate() error {
	n := int32(len(ff.feature))
	for i := int32(0); i < n; i++ {
		if ff.feature[i] < 0 {
			if off := ff.left[i]; off < 0 || int(off)+ff.numClass > len(ff.weights) {
				return fmt.Errorf("tree: flat leaf %d weight offset %d out of range", i, off)
			}
			continue
		}
		if ff.left[i] <= i || ff.left[i] >= n || ff.right[i] <= i || ff.right[i] >= n {
			return fmt.Errorf("tree: flat node %d has child links (%d,%d) outside (%d,%d)",
				i, ff.left[i], ff.right[i], i, n)
		}
	}
	return nil
}
