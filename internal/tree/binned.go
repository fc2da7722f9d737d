// Binned inference: descent over bin codes instead of float thresholds.
//
// Histogram-based training never compares raw float values: it quantizes
// every feature into at most q bins and routes on bin indices. The trained
// model records both views of each split — the float threshold
// (Node.SplitValue) and the bin index it came from (Node.SplitBin) — and,
// since PR 6, the per-feature candidate split arrays themselves
// (Forest.Splits). BinnedForest exploits that: incoming rows are quantized
// once per feature (a binary search over at most q splits), and the
// per-node comparison becomes a uint8/uint16 compare against a
// precomputed bin threshold. The node image shrinks (1-2 bytes of
// threshold per node instead of 4) and the block image shrinks 4x/2x,
// so more of the descent working set stays cache-resident.
//
// Routing is bit-identical to the float walk for every input value. With
// s = Splits[f] ascending and t = s[b] the node's threshold, quantize v to
// code(v) = the first index i with s[i] >= v (len(s) when v exceeds every
// split — deliberately one past the last bin, never clamped). Then
//
//	code(v) <= b  <=>  exists i <= b with s[i] >= v  <=>  s[b] >= v  <=>  v <= t
//
// so the binned predicate equals the float predicate exactly, including
// for out-of-range and boundary values. Missing features follow
// DefaultLeft in both engines. CompileBinned verifies the metadata
// (thresholds must equal their split values) and refuses models where the
// equivalence cannot be guaranteed.
package tree

import (
	"fmt"
	"sync"

	"vero/internal/sparse"
)

// binCode is the constraint shared by the two bin-code widths: uint8 when
// every routed feature has fewer than 256 candidate splits, uint16
// otherwise.
type binCode interface {
	~uint8 | ~uint16
}

// BinnedForest is a bin-code inference engine compiled from a FlatForest
// and the model's candidate split arrays. It is immutable and safe for
// concurrent use, and produces bit-identical margins to the float engine.
type BinnedForest struct {
	ff *FlatForest
	// Exactly one of e8/e16 is non-nil, chosen by the widest per-feature
	// split count.
	e8  *binnedEngine[uint8]
	e16 *binnedEngine[uint16]
}

// binnedEngine holds the width-specialized node image and scratch pools.
type binnedEngine[C binCode] struct {
	ff *FlatForest
	// thresh[i] is node i's SplitBin (0 on leaves): code <= thresh routes
	// left, mirroring value <= threshold.
	thresh []C
	// splits[g] holds the candidate splits of compact feature g, the
	// quantization table for incoming values.
	splits [][]float32

	rowScratch   sync.Pool // *binScratch[C]
	blockScratch sync.Pool // *binImage[C]
}

// binScratch is the single-row dense code image (numSplitFeat wide).
type binScratch[C binCode] struct {
	code    []C
	present []bool
	touched []int32
}

// binImage is the block-of-rows code image plus descent state, the binned
// counterpart of blockImage.
type binImage[C binCode] struct {
	code    []C
	present []bool
	touched []int32
	ids     []int32
}

// CompileBinned builds the bin-code engine for a compiled forest. splits
// is indexed by global feature id (Forest.Splits). It fails when any
// routed feature lacks splits, when a split array is not ascending, when
// a node's float threshold is not exactly its split array entry (the
// invariant bit-identical routing rests on), or when a feature has too
// many bins for a uint16 code.
func (ff *FlatForest) CompileBinned(splits [][]float32) (*BinnedForest, error) {
	if len(splits) == 0 {
		return nil, fmt.Errorf("tree: model carries no candidate splits")
	}
	compact := make([][]float32, ff.numSplitFeat)
	maxBins := 0
	for f, g := range ff.remap {
		if g < 0 {
			continue
		}
		if f >= len(splits) || len(splits[f]) == 0 {
			return nil, fmt.Errorf("tree: split feature %d has no candidate splits", f)
		}
		s := splits[f]
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				return nil, fmt.Errorf("tree: feature %d splits not ascending at %d", f, i)
			}
		}
		compact[g] = s
		if len(s) > maxBins {
			maxBins = len(s)
		}
	}
	// code(v) ranges over [0, len(s)] inclusive: the out-of-range code is
	// one past the last bin and must fit the code type too.
	if maxBins >= sparse.MaxBins {
		return nil, fmt.Errorf("tree: %d bins exceed the uint16 code range", maxBins)
	}
	for i, f := range ff.feature {
		if f < 0 {
			continue
		}
		s := splits[f]
		b := int(ff.splitBin[i])
		if b >= len(s) {
			return nil, fmt.Errorf("tree: node %d split bin %d out of range for feature %d (%d splits)", i, b, f, len(s))
		}
		if s[b] != ff.threshold[i] {
			return nil, fmt.Errorf("tree: node %d threshold %v != splits[%d][%d] = %v; bin metadata inconsistent",
				i, ff.threshold[i], f, b, s[b])
		}
	}
	bf := &BinnedForest{ff: ff}
	if maxBins < 1<<8 {
		bf.e8 = newBinnedEngine[uint8](ff, compact)
	} else {
		bf.e16 = newBinnedEngine[uint16](ff, compact)
	}
	return bf, nil
}

func newBinnedEngine[C binCode](ff *FlatForest, compact [][]float32) *binnedEngine[C] {
	e := &binnedEngine[C]{ff: ff, splits: compact}
	e.thresh = make([]C, len(ff.splitBin))
	for i, b := range ff.splitBin {
		e.thresh[i] = C(b)
	}
	e.rowScratch.New = func() any {
		return &binScratch[C]{
			code:    make([]C, ff.numSplitFeat),
			present: make([]bool, ff.numSplitFeat),
			touched: make([]int32, 0, 64),
		}
	}
	e.blockScratch.New = func() any { return &binImage[C]{} }
	return e
}

// CodeBits reports the bin-code width in bits (8 or 16).
func (bf *BinnedForest) CodeBits() int {
	if bf.e8 != nil {
		return 8
	}
	return 16
}

// NumClass returns the per-row output dimensionality.
func (bf *BinnedForest) NumClass() int { return bf.ff.numClass }

// binValue quantizes one raw value of compact feature g: the first split
// index >= v, or len(splits) when v exceeds every split. Unlike
// sparse.Binner.BinValue it never clamps — the out-of-range code must
// compare greater than every stored SplitBin for bit-identical routing.
func (e *binnedEngine[C]) binValue(g int32, v float32) C {
	s := e.splits[g]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return C(lo)
}

// scatter quantizes a sparse row into the dense code image. Features no
// split routes on are skipped.
func (e *binnedEngine[C]) scatter(s *binScratch[C], feat []uint32, val []float32) {
	remap := e.ff.remap
	for j, f := range feat {
		if int(f) >= len(remap) {
			continue
		}
		g := remap[f]
		if g < 0 {
			continue
		}
		s.code[g] = e.binValue(g, val[j])
		s.present[g] = true
		s.touched = append(s.touched, g)
	}
}

func (s *binScratch[C]) clear() {
	for _, g := range s.touched {
		s.present[g] = false
	}
	s.touched = s.touched[:0]
}

// predictRowInto walks every tree comparing bin codes, accumulating the
// pre-scaled leaf weights (identical order and predicate to the float
// walk).
func (e *binnedEngine[C]) predictRowInto(feat []uint32, val []float32, out []float64) {
	ff := e.ff
	copy(out, ff.initScore)
	s := e.rowScratch.Get().(*binScratch[C])
	e.scatter(s, feat, val)
	for _, root := range ff.roots {
		id := root
		for {
			if ff.feature[id] < 0 {
				w := ff.weights[ff.left[id] : ff.left[id]+int32(ff.numClass)]
				for k := range w {
					out[k] += w[k]
				}
				break
			}
			g := ff.blockFeat[id]
			if s.present[g] {
				if s.code[g] <= e.thresh[id] {
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
	s.clear()
	e.rowScratch.Put(s)
}

// PredictRowInto computes the raw scores (margins) of one sparse row into
// out, which must have length NumClass.
func (bf *BinnedForest) PredictRowInto(feat []uint32, val []float32, out []float64) {
	if bf.e8 != nil {
		bf.e8.predictRowInto(feat, val, out)
	} else {
		bf.e16.predictRowInto(feat, val, out)
	}
}

// PredictRow returns the raw scores (margins) of one sparse row.
func (bf *BinnedForest) PredictRow(feat []uint32, val []float32) []float64 {
	out := make([]float64, bf.ff.numClass)
	bf.PredictRowInto(feat, val, out)
	return out
}

// PredictBlock scores a batch of independent sparse rows into out
// (row-major, stride NumClass) on the calling goroutine through the binned
// blocked kernel, block rows at a time (<=0 means DefaultBlockRows).
// Margins are bit-identical to the float engine on every row.
func (bf *BinnedForest) PredictBlock(feats [][]uint32, vals [][]float32, out []float64, block int) {
	if bf.e8 != nil {
		bf.e8.predictBlockRange(rowSource{feats: feats, vals: vals}, 0, len(feats), out, block)
	} else {
		bf.e16.predictBlockRange(rowSource{feats: feats, vals: vals}, 0, len(feats), out, block)
	}
}

// PredictCSRBlocked returns raw scores for every row of m, row-major with
// stride NumClass, computed by `workers` goroutines over instance blocks
// of `block` rows through the binned kernel.
func (bf *BinnedForest) PredictCSRBlocked(m *sparse.CSR, workers, block int) []float64 {
	rows := m.Rows()
	out := make([]float64, rows*bf.ff.numClass)
	if rows == 0 {
		return out
	}
	block = bf.ff.blockSize(block)
	chunk := ((batchRows + block - 1) / block) * block
	fn := func(lo, hi int) {
		if bf.e8 != nil {
			bf.e8.predictBlockRange(rowSource{csr: m}, lo, hi, out, block)
		} else {
			bf.e16.predictBlockRange(rowSource{csr: m}, lo, hi, out, block)
		}
	}
	parallelRowRanges(rows, chunk, workers, fn)
	return out
}

// ensure sizes the image for cells entries and rows ids, keeping capacity
// across uses.
func (s *binImage[C]) ensure(cells, rows int) {
	if cap(s.code) < cells {
		s.code = make([]C, cells)
		s.present = make([]bool, cells)
	}
	s.code = s.code[:cells]
	s.present = s.present[:cells]
	if cap(s.ids) < rows {
		s.ids = make([]int32, rows)
	}
	s.ids = s.ids[:rows]
}

func (s *binImage[C]) clear() {
	for _, p := range s.touched {
		s.present[p] = false
	}
	s.touched = s.touched[:0]
}

// predictBlockRange scores rows [lo, hi) into out with one code image,
// block rows at a time — the binned mirror of the float
// predictBlockRange, falling back to the per-row binned walk for tiny
// batches.
func (e *binnedEngine[C]) predictBlockRange(rows rowSource, lo, hi int, out []float64, block int) {
	ff := e.ff
	if hi-lo < blockedMinRows {
		k := ff.numClass
		for i := lo; i < hi; i++ {
			feat, val := rows.Row(i)
			e.predictRowInto(feat, val, out[i*k:(i+1)*k])
		}
		return
	}
	block = ff.blockSize(block)
	s := e.blockScratch.Get().(*binImage[C])
	s.ensure(block*ff.numSplitFeat, block)
	f := ff.numSplitFeat
	remap := ff.remap
	for b0 := lo; b0 < hi; b0 += block {
		b1 := b0 + block
		if b1 > hi {
			b1 = hi
		}
		for i := b0; i < b1; i++ {
			base := int32((i - b0) * f)
			feat, val := rows.Row(i)
			for j, ft := range feat {
				if int(ft) >= len(remap) {
					continue
				}
				g := remap[ft]
				if g < 0 {
					continue
				}
				s.code[base+g] = e.binValue(g, val[j])
				s.present[base+g] = true
				s.touched = append(s.touched, base+g)
			}
			copy(out[i*ff.numClass:(i+1)*ff.numClass], ff.initScore)
		}
		if ff.numClass == 1 {
			e.walkBlockScalar(s, out[b0:b1])
		} else {
			e.walkBlockVec(s, out[b0*ff.numClass:b1*ff.numClass], b1-b0)
		}
		s.clear()
	}
	e.blockScratch.Put(s)
}

// descendBlock advances every row of the block through one tree in
// lock-step levels, exactly like the float kernel but with an integer
// compare: present ? code<=thresh : defaultLeft, leaves self-looping via
// nav.
func (e *binnedEngine[C]) descendBlock(s *binImage[C], rows int, root, steps int32) {
	ff := e.ff
	blockFeat, defaultLeft, nav := ff.blockFeat, ff.defaultLeft, ff.nav
	thresh := e.thresh
	code, present := s.code, s.present
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
			l, rt := nav[2*id], nav[2*id+1]
			routed := rt
			if code[p] <= thresh[id] {
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

// walkBlockScalar is the numClass==1 fast path over the binned descent.
func (e *binnedEngine[C]) walkBlockScalar(s *binImage[C], out []float64) {
	ff := e.ff
	left, weights := ff.left, ff.weights
	for t, root := range ff.roots {
		e.descendBlock(s, len(out), root, ff.treeSteps[t])
		for r := range out {
			out[r] += weights[left[s.ids[r]]]
		}
	}
}

// walkBlockVec is the multiclass path: identical descent, vector
// accumulation per leaf.
func (e *binnedEngine[C]) walkBlockVec(s *binImage[C], out []float64, rows int) {
	ff := e.ff
	left, weights := ff.left, ff.weights
	k := ff.numClass
	for t, root := range ff.roots {
		e.descendBlock(s, rows, root, ff.treeSteps[t])
		for r := 0; r < rows; r++ {
			w := weights[left[s.ids[r]] : left[s.ids[r]]+int32(k)]
			orow := out[r*k : r*k+k]
			for c := range w {
				orow[c] += w[c]
			}
		}
	}
}
