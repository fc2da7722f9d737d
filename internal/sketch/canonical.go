package sketch

import "vero/internal/sparse"

// Canonical builds one quantile sketch per feature of x by inserting
// values in global row order. The result is independent of how the matrix
// is partitioned across workers, so candidate splits derived from it are
// identical for every quadrant and worker count — which is what lets the
// reproduction verify that all four data-management policies grow
// bit-identical trees. Features with no stored values get a nil sketch.
// It is Pass.Canonical without local sketches.
func Canonical(x *sparse.CSR, eps float64) []*GK {
	return NewPass(x, eps).Canonical()
}
