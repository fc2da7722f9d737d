package histogram

import "math"

// Split finding per Equation 2 of the paper: for every candidate split of
// every feature, compute
//
//	Gain = 1/2 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma
//
// summed over classes, and keep the maximum. Instances with a missing
// value on the split feature (zero entries of a sparse dataset) carry the
// gradient mass (node total - histogram total); both default directions
// are tried and the better one is recorded, following DimBoost [17].

// minSplitGain is the smallest gain accepted as a real split. A node whose
// every candidate split has mathematically zero gain (e.g. a pure node)
// computes gains of +/- a few ulps depending on accumulation order; the
// threshold keeps such noise from splitting in one quadrant but not
// another.
const minSplitGain = 1e-9

// gainTieEps is the relative tolerance under which two split gains are
// considered tied. Different data-management policies accumulate the same
// gradient sums in different orders, so mathematically equal gains can
// differ in their last bits; ties are broken deterministically by
// (feature, bin, default direction) so that every quadrant grows the same
// tree.
const gainTieEps = 1e-10

// Prefer reports whether candidate cand should replace best, comparing
// gains with a relative tolerance and breaking ties by lower feature, then
// lower bin, then default-right.
func Prefer(cand, best Split) bool {
	if !cand.Valid {
		return false
	}
	if !best.Valid {
		return true
	}
	eps := gainTieEps * (abs(best.Gain) + 1)
	if cand.Gain > best.Gain+eps {
		return true
	}
	if cand.Gain < best.Gain-eps {
		return false
	}
	if cand.Feature != best.Feature {
		return cand.Feature < best.Feature
	}
	if cand.Bin != best.Bin {
		return cand.Bin < best.Bin
	}
	return !cand.DefaultLeft && best.DefaultLeft
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Split describes the best split found for one node on one worker.
type Split struct {
	// Feature is the worker-local feature slot; callers translate it to a
	// global feature id.
	Feature int
	// Bin is the candidate-split index: instances with bin <= Bin go left.
	Bin int
	// Gain is the split gain of Equation 2.
	Gain float64
	// DefaultLeft directs instances with a missing value on Feature.
	DefaultLeft bool
	// Valid is false when no split improves on the leaf.
	Valid bool
}

// Finder holds the regularization hyper-parameters of the objective
// (Section 2.1.1): lambda is the L2 penalty on leaf weights, gamma the
// per-leaf complexity penalty, MinChildHess the minimum second-order mass
// of each child (a min_child_weight analogue).
type Finder struct {
	Lambda       float64
	Gamma        float64
	MinChildHess float64
}

// score is the leaf objective contribution sum_k G_k^2 / (H_k + lambda).
func (f *Finder) score(g, h []float64) float64 {
	var s float64
	for k := range g {
		s += g[k] * g[k] / (h[k] + f.Lambda)
	}
	return s
}

func sumSlice(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// FindBest scans the histograms of node hist, whose per-class totals over
// all node instances are totalG/totalH, and returns the best split across
// the worker's feature slots. numBins[feat] gives the true candidate count
// of each slot (at most its layout width); nil means every slot's width.
func (f *Finder) FindBest(hist *Hist, totalG, totalH []float64, numBins []int) Split {
	return f.FindBestInRange(hist, totalG, totalH, numBins, 0, hist.NumFeat)
}

// FindBestInRange is FindBest restricted to feature slots [featLo, featHi).
// Horizontal systems that shard aggregated histograms across workers
// (LightGBM's reduce-scatter, DimBoost's parameter servers) use it for
// per-worker split finding on their feature shard.
//
// The search is sparsity-aware (XGBoost's idea, applied to the histogram)
// and exact: it returns bit for bit the split of the plain scan that
// evaluates every bin of every slot.
//   - A feature whose histogram is exactly zero on this node is skipped
//     when Gamma >= 0: every candidate's gain is then -Gamma (or NaN), so
//     none is valid.
//   - A bin > 0 whose grad and hess are exactly zero in every class adds
//     nothing to the prefix, so its candidates repeat the previous bin's
//     with a higher bin index and lose every tie; it is skipped unless the
//     previous evaluation's default-left fold changed the prefix (folding
//     the missing mass in and out again can round its low bits away).
//     Bin 0 is always evaluated: it alone carries the "missing left, every
//     present value right" candidate.
//
// It allocates nothing for up to maxStackClass classes.
func (f *Finder) FindBestInRange(hist *Hist, totalG, totalH []float64, numBins []int, featLo, featHi int) Split {
	if hist.NumClass == 1 {
		return f.findScalar(hist, totalG[0], totalH[0], numBins, featLo, featHi)
	}
	return f.findVec(hist, totalG, totalH, numBins, featLo, featHi)
}

// slotBins returns slot feat's bin range in hist and its candidate count.
func slotBins(hist *Hist, numBins []int, feat int) (lo, hi, nb int) {
	off := *hist.off
	lo, hi = off[feat], off[feat+1]
	nb = hi - lo
	if numBins != nil {
		nb = numBins[feat]
	}
	return lo, hi, nb
}

// findScalar is FindBestInRange for NumClass == 1, on scalars. The plain
// scan's one-class sums start from +0; dropping that addition can change
// only the sign of a zero score, which no valid gain (> minSplitGain)
// depends on.
func (f *Finder) findScalar(hist *Hist, totalG, totalH float64, numBins []int, featLo, featHi int) Split {
	best := Split{}
	lambda := f.Lambda
	parentScore := totalG * totalG / (totalH + lambda)
	skipEmpty := f.Gamma >= 0
	for feat := featLo; feat < featHi; feat++ {
		lo, hi, nb := slotBins(hist, numBins, feat)
		if nb < 2 {
			continue // a single bin admits no split
		}
		grad, hess := hist.Grad[lo:hi], hist.Hess[lo:hi]
		hess = hess[:len(grad)]
		// Feature totals, summed in bin order; last is the highest
		// non-empty bin.
		var featG, featH float64
		last := -1
		for b, g := range grad {
			featG += g
			featH += hess[b]
			if g != 0 || hess[b] != 0 {
				last = b
			}
		}
		if last < 0 && skipEmpty {
			continue
		}
		missG, missH := totalG-featG, totalH-featH

		// Prefix scan over bins; the last bin cannot be a split point
		// (everything would go left).
		var leftG, leftH float64
		dirty := false
		for bin := 0; bin < nb-1; bin++ {
			g, h := grad[bin], hess[bin]
			if bin > 0 && g == 0 && h == 0 && !dirty {
				if bin > last {
					break // nothing further changes the prefix
				}
				continue
			}
			leftG += g
			leftH += h
			dirty = false

			// Default right: missing mass joins the right child.
			if leftH >= f.MinChildHess && totalH-leftH >= f.MinChildHess {
				rightG, rightH := totalG-leftG, totalH-leftH
				gain := 0.5*(leftG*leftG/(leftH+lambda)+rightG*rightG/(rightH+lambda)-parentScore) - f.Gamma
				if gain > minSplitGain {
					cand := Split{Feature: feat, Bin: bin, Gain: gain, DefaultLeft: false, Valid: true}
					if Prefer(cand, best) {
						best = cand
					}
				}
			}
			// Default left: missing mass joins the left child. Skip when
			// there is no missing mass — identical to default right.
			if missH > 0 && leftH+missH >= f.MinChildHess && totalH-leftH-missH >= f.MinChildHess {
				lg, lh := leftG+missG, leftH+missH
				rightG, rightH := totalG-lg, totalH-lh
				gain := 0.5*(lg*lg/(lh+lambda)+rightG*rightG/(rightH+lambda)-parentScore) - f.Gamma
				if gain > minSplitGain {
					cand := Split{Feature: feat, Bin: bin, Gain: gain, DefaultLeft: true, Valid: true}
					if Prefer(cand, best) {
						best = cand
					}
				}
				// Unfold the missing mass exactly as the plain scan does:
				// the round trip can change the prefix's low bits.
				g0, h0 := lg-missG, lh-missH
				dirty = g0 != leftG || h0 != leftH
				leftG, leftH = g0, h0
			}
		}
	}
	return best
}

// maxStackClass is the largest class count whose split-search scratch
// lives on the stack; wider problems allocate it per call.
const maxStackClass = 32

// classAcc is one class's running state in findVec: node totals, the
// feature's missing mass and the left prefix.
type classAcc struct {
	tg, th float64 // node totals
	mg, mh float64 // missing mass (node totals minus feature totals)
	lg, lh float64 // prefix over bins [0, bin]
}

// nonzero reports, for a bit-OR over the entries of one bin (each shifted
// left by one to drop the sign), whether any entry is not ±0.
func nonzero(g, h float64) uint64 { return (math.Float64bits(g) | math.Float64bits(h)) << 1 }

// findVec is FindBestInRange for NumClass > 1. Per class it adds and
// divides in exactly the plain scan's order (score's accumulation, the
// fold and unfold of the missing mass), so every gain is bit-identical.
func (f *Finder) findVec(hist *Hist, totalG, totalH []float64, numBins []int, featLo, featHi int) Split {
	c := hist.NumClass
	var stack [maxStackClass]classAcc
	var acc []classAcc
	if c <= maxStackClass {
		acc = stack[:c]
	} else {
		acc = make([]classAcc, c)
	}
	for k := range acc {
		acc[k].tg, acc[k].th = totalG[k], totalH[k]
	}

	best := Split{}
	lambda := f.Lambda
	parentScore := f.score(totalG, totalH)
	totalHess := sumSlice(totalH)
	skipEmpty := f.Gamma >= 0
	for feat := featLo; feat < featHi; feat++ {
		lo, hi, nb := slotBins(hist, numBins, feat)
		if nb < 2 {
			continue // a single bin admits no split
		}
		grad, hess := hist.Grad[lo*c:hi*c], hist.Hess[lo*c:hi*c]
		// Feature totals, summed in bin order, land in mg/mh; last is
		// the highest non-empty bin.
		for k := range acc {
			acc[k].mg, acc[k].mh = 0, 0
		}
		last := -1
		for b := 0; b < hi-lo; b++ {
			row, hrow := grad[b*c:][:len(acc)], hess[b*c:][:len(acc)]
			var nz uint64
			for k := range acc {
				a := &acc[k]
				a.mg += row[k]
				a.mh += hrow[k]
				nz |= nonzero(row[k], hrow[k])
			}
			if nz != 0 {
				last = b
			}
		}
		if last < 0 && skipEmpty {
			continue
		}
		var missHess float64
		for k := range acc {
			a := &acc[k]
			a.mg, a.mh = a.tg-a.mg, a.th-a.mh
			missHess += a.mh
			a.lg, a.lh = 0, 0
		}

		// Prefix scan over bins; the last bin cannot be a split point
		// (everything would go left).
		dirty := false
		for bin := 0; bin < nb-1; bin++ {
			row, hrow := grad[bin*c:][:len(acc)], hess[bin*c:][:len(acc)]
			var nz uint64
			var leftHess float64
			for k := range acc {
				a := &acc[k]
				nz |= nonzero(row[k], hrow[k])
				a.lg += row[k] // adding ±0 leaves a prefix unchanged
				a.lh += hrow[k]
				leftHess += a.lh
			}
			if bin > 0 && nz == 0 && !dirty {
				if bin > last {
					break // nothing further changes the prefix
				}
				continue
			}
			dirty = false

			// Default right: missing mass joins the right child.
			if leftHess >= f.MinChildHess && totalHess-leftHess >= f.MinChildHess {
				var sl, sr float64
				for k := range acc {
					a := &acc[k]
					sl += a.lg * a.lg / (a.lh + lambda)
					rg, rh := a.tg-a.lg, a.th-a.lh
					sr += rg * rg / (rh + lambda)
				}
				gain := 0.5*(sl+sr-parentScore) - f.Gamma
				if gain > minSplitGain {
					cand := Split{Feature: feat, Bin: bin, Gain: gain, DefaultLeft: false, Valid: true}
					if Prefer(cand, best) {
						best = cand
					}
				}
			}
			// Default left: missing mass joins the left child. Skip when
			// there is no missing mass — identical to default right.
			if missHess > 0 && leftHess+missHess >= f.MinChildHess && totalHess-leftHess-missHess >= f.MinChildHess {
				var sl, sr float64
				for k := range acc {
					a := &acc[k]
					fg, fh := a.lg+a.mg, a.lh+a.mh
					sl += fg * fg / (fh + lambda)
					rg, rh := a.tg-fg, a.th-fh
					sr += rg * rg / (rh + lambda)
					// Unfold the missing mass exactly as the plain scan
					// does: the round trip can change the prefix's low
					// bits.
					g0, h0 := fg-a.mg, fh-a.mh
					if g0 != a.lg || h0 != a.lh {
						dirty = true
					}
					a.lg, a.lh = g0, h0
				}
				gain := 0.5*(sl+sr-parentScore) - f.Gamma
				if gain > minSplitGain {
					cand := Split{Feature: feat, Bin: bin, Gain: gain, DefaultLeft: true, Valid: true}
					if Prefer(cand, best) {
						best = cand
					}
				}
			}
		}
	}
	return best
}

// LeafWeights returns the optimal leaf weight vector of Equation 1,
// w_k = -G_k / (H_k + lambda), for a node with the given totals.
func (f *Finder) LeafWeights(totalG, totalH []float64) []float64 {
	w := make([]float64, len(totalG))
	for k := range totalG {
		w[k] = -totalG[k] / (totalH[k] + f.Lambda)
	}
	return w
}

// LeafObjective returns the node's contribution to the training objective,
// -1/2 * sum_k G_k^2/(H_k+lambda) + gamma (Equation 1, per-leaf term).
func (f *Finder) LeafObjective(totalG, totalH []float64) float64 {
	return -0.5*f.score(totalG, totalH) + f.Gamma
}
