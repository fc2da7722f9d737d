// Package histogram implements gradient histograms and histogram-based
// split finding (Section 2.1.2 of the paper).
//
// A gradient histogram summarizes, for one feature on one tree node, the
// sums of first- and second-order gradients of the instances whose feature
// value falls into each candidate-split bin. For C-class problems each bin
// holds a C-dimensional gradient vector, which makes the histogram size
// Sizehist = 2 * D * q * C * 8 bytes per node (Section 3.1.1) — the
// quantity that drives the paper's memory and communication analysis.
//
// The package also implements the histogram subtraction technique: the
// instances of two sibling nodes partition those of the parent, so
// hist(parent) - hist(builtChild) = hist(siblingChild), letting the trainer
// skip at least half the instance scans per layer.
//
// Histograms are bin-exact where they stay on one worker: a Layout
// carries per-slot bin offsets, so the vertical quadrants give each
// feature only the bins its candidate splits need, while the horizontal
// quadrants keep the uniform q-bin slots whose size the paper's Sizehist
// prices on the wire (see Layout). Split finding (split.go) skips the bins
// and features a sparse node leaves exactly empty.
package histogram

import "fmt"

// Layout describes the shape of a node's histograms over a worker's
// feature slots. Slot f owns the Width(f) consecutive bins starting at
// Offset(f), each holding NumClass gradient entries, so a histogram
// stores exactly the bins its slots can use.
//
// The vertical quadrants size every slot to its feature's candidate count
// (LightGBM's per-feature bin offsets): their histograms never leave the
// worker, and on sparse high-dimensional data many features have fewer
// than q distinct candidates. The horizontal quadrants use a uniform
// layout instead, q bins per slot: their histograms are the all-reduce,
// reduce-scatter and parameter-server payloads, and the paper's cost model
// charges exactly Sizehist = 2*D*q*C*8 bytes for them.
//
// The offsets table is shared and immutable, so a Layout is a small
// comparable value: layouts are equal when they share the table, which is
// what Pool keys and the Merge/Sub layout check rely on.
type Layout struct {
	NumFeat  int // number of feature slots on this worker
	NumClass int // gradient dimension C
	off      *[]int
}

// NewLayout returns a layout whose slot f holds widths[f] bins. A slot of
// width 0 still gets one bin: a feature binned without candidate splits
// (a NaN-only column) stores its entries at bin 0.
func NewLayout(widths []int, numClass int) Layout {
	off := make([]int, len(widths)+1)
	for f, w := range widths {
		off[f+1] = off[f] + max(w, 1)
	}
	return Layout{NumFeat: len(widths), NumClass: numClass, off: &off}
}

// UniformLayout returns a layout of numFeat slots with width bins each —
// the paper's fixed q-bins-per-feature histogram.
func UniformLayout(numFeat, width, numClass int) Layout {
	off := make([]int, numFeat+1)
	for f := range numFeat {
		off[f+1] = off[f] + width
	}
	return Layout{NumFeat: numFeat, NumClass: numClass, off: &off}
}

// Offset returns the index of slot f's first bin; Offset(NumFeat) is the
// total bin count.
func (l Layout) Offset(f int) int { return (*l.off)[f] }

// Width returns the number of bins of slot f.
func (l Layout) Width(f int) int { return (*l.off)[f+1] - (*l.off)[f] }

// FloatsPerSide returns the number of float64 entries in one gradient
// array (first-order or second-order).
func (l Layout) FloatsPerSide() int { return l.Offset(l.NumFeat) * l.NumClass }

// SizeBytes returns the in-memory histogram size for one node under this
// layout: 2 sides x bins x NumClass x 8 bytes. Under a uniform layout this
// is the paper's Sizehist with D replaced by the worker-local feature
// count.
func (l Layout) SizeBytes() int64 { return int64(2*l.FloatsPerSide()) * 8 }

// Hist holds the first- and second-order gradient histograms of one tree
// node for all feature slots of a worker.
type Hist struct {
	Layout
	Grad []float64 // [(Offset(feat)+bin)*C + class]
	Hess []float64
}

// New allocates a zeroed histogram with the given layout.
func New(l Layout) *Hist {
	n := l.FloatsPerSide()
	return &Hist{Layout: l, Grad: make([]float64, n), Hess: make([]float64, n)}
}

// offset returns the flat index of (feat, bin, class 0).
func (h *Hist) offset(feat, bin int) int {
	return ((*h.off)[feat] + bin) * h.NumClass
}

// Add accumulates a scalar gradient pair into (feat, bin, class).
func (h *Hist) Add(feat, bin, class int, g, hs float64) {
	i := h.offset(feat, bin) + class
	h.Grad[i] += g
	h.Hess[i] += hs
}

// AddVec accumulates a C-dimensional gradient pair into (feat, bin).
// len(g) and len(hs) must equal NumClass.
func (h *Hist) AddVec(feat, bin int, g, hs []float64) {
	i := h.offset(feat, bin)
	for k := 0; k < h.NumClass; k++ {
		h.Grad[i+k] += g[k]
		h.Hess[i+k] += hs[k]
	}
}

// At returns the accumulated (grad, hess) at (feat, bin, class).
func (h *Hist) At(feat, bin, class int) (float64, float64) {
	i := h.offset(feat, bin) + class
	return h.Grad[i], h.Hess[i]
}

// Merge element-wise adds other into h. Layouts must match.
func (h *Hist) Merge(other *Hist) {
	h.checkLayout(other)
	for i := range h.Grad {
		h.Grad[i] += other.Grad[i]
		h.Hess[i] += other.Hess[i]
	}
}

// Sub element-wise subtracts other from h: the histogram subtraction
// technique (h := parent, other := built child, result := sibling).
func (h *Hist) Sub(other *Hist) {
	h.checkLayout(other)
	for i := range h.Grad {
		h.Grad[i] -= other.Grad[i]
		h.Hess[i] -= other.Hess[i]
	}
}

// Reset zeroes the histogram in place.
func (h *Hist) Reset() {
	for i := range h.Grad {
		h.Grad[i] = 0
		h.Hess[i] = 0
	}
}

// Clone returns a deep copy.
func (h *Hist) Clone() *Hist {
	c := New(h.Layout)
	copy(c.Grad, h.Grad)
	copy(c.Hess, h.Hess)
	return c
}

func (h *Hist) checkLayout(other *Hist) {
	if h.Layout != other.Layout {
		panic(fmt.Sprintf("histogram: layout mismatch: %d slots x %d floats vs %d slots x %d floats",
			h.NumFeat, h.FloatsPerSide(), other.NumFeat, other.FloatsPerSide()))
	}
}
