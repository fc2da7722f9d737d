package histogram

// The plain split search the sparsity-aware finder replaced, kept as the
// reference FuzzFindBest holds FindBestInRange to bit for bit: it scans
// every bin of every slot, including empty ones and zero-mass features,
// with per-call scratch.

// FeatTotals sums the per-class gradients of one feature slot across all
// its bins, writing into g and hs (length NumClass). Together with the
// node totals this yields the gradient mass of instances with a missing
// value on the feature.
func (h *Hist) FeatTotals(feat int, g, hs []float64) {
	for k := 0; k < h.NumClass; k++ {
		g[k] = 0
		hs[k] = 0
	}
	base := h.offset(feat, 0)
	for b := 0; b < h.Width(feat); b++ {
		for k := 0; k < h.NumClass; k++ {
			g[k] += h.Grad[base+b*h.NumClass+k]
			hs[k] += h.Hess[base+b*h.NumClass+k]
		}
	}
}

// findBestReference is the plain scan.
func (f *Finder) findBestReference(hist *Hist, totalG, totalH []float64, numBins []int, featLo, featHi int) Split {
	c := hist.NumClass
	best := Split{Gain: 0, Valid: false}
	parentScore := f.score(totalG, totalH)
	totalHess := sumSlice(totalH)

	featG := make([]float64, c)
	featH := make([]float64, c)
	missG := make([]float64, c)
	missH := make([]float64, c)
	leftG := make([]float64, c)
	leftH := make([]float64, c)
	rightG := make([]float64, c)
	rightH := make([]float64, c)

	for feat := featLo; feat < featHi; feat++ {
		nb := hist.Width(feat)
		if numBins != nil {
			nb = numBins[feat]
		}
		if nb < 2 {
			continue // a single bin admits no split
		}
		hist.FeatTotals(feat, featG, featH)
		for k := 0; k < c; k++ {
			missG[k] = totalG[k] - featG[k]
			missH[k] = totalH[k] - featH[k]
		}
		missHess := sumSlice(missH)

		for k := 0; k < c; k++ {
			leftG[k] = 0
			leftH[k] = 0
		}
		base := hist.offset(feat, 0)
		var leftHess float64
		for bin := 0; bin < nb-1; bin++ {
			for k := 0; k < c; k++ {
				leftG[k] += hist.Grad[base+bin*c+k]
				leftH[k] += hist.Hess[base+bin*c+k]
			}
			leftHess = sumSlice(leftH)

			if leftHess >= f.MinChildHess && totalHess-leftHess >= f.MinChildHess {
				for k := 0; k < c; k++ {
					rightG[k] = totalG[k] - leftG[k]
					rightH[k] = totalH[k] - leftH[k]
				}
				gain := 0.5*(f.score(leftG, leftH)+f.score(rightG, rightH)-parentScore) - f.Gamma
				if gain > minSplitGain {
					cand := Split{Feature: feat, Bin: bin, Gain: gain, DefaultLeft: false, Valid: true}
					if Prefer(cand, best) {
						best = cand
					}
				}
			}
			if missHess > 0 && leftHess+missHess >= f.MinChildHess && totalHess-leftHess-missHess >= f.MinChildHess {
				for k := 0; k < c; k++ {
					lg := leftG[k] + missG[k]
					lh := leftH[k] + missH[k]
					rightG[k] = totalG[k] - lg
					rightH[k] = totalH[k] - lh
					leftG[k] = lg // temporarily fold missing in
					leftH[k] = lh
				}
				gain := 0.5*(f.score(leftG, leftH)+f.score(rightG, rightH)-parentScore) - f.Gamma
				if gain > minSplitGain {
					cand := Split{Feature: feat, Bin: bin, Gain: gain, DefaultLeft: true, Valid: true}
					if Prefer(cand, best) {
						best = cand
					}
				}
				for k := 0; k < c; k++ { // restore the prefix
					leftG[k] -= missG[k]
					leftH[k] -= missH[k]
				}
			}
		}
	}
	return best
}
