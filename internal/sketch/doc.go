// Package sketch implements the Greenwald–Khanna (GK) quantile sketch used
// to propose candidate splits for histogram-based GBDT (Section 2.1.2 of
// the paper, reference [15]).
//
// The sketch supports streaming insertion, compression to O(1/eps * log(eps*n))
// space, rank queries with eps*n additive error, and merging — the operation
// the distributed sketching step of the horizontal-to-vertical
// transformation relies on (local per-worker sketches of one feature are
// merged into a global sketch, Section 4.2.1 step 1). Merging two sketches
// with errors eps1 and eps2 yields a sketch with error at most eps1+eps2.
//
// Inserts are buffered and folded into the tuple list about every
// 1/(2*eps) values. The fold (flush) sorts the buffer and merges it into
// the tuple list in place, from the back, so the list is only reallocated
// when the merged length passes its high-water mark: once a sketch's size
// has settled, Add does not allocate. Canonical therefore allocates a
// small number of times per non-empty feature, not per value.
//
// Two consumers drive the sketch:
//
//   - A Pass sketches an in-memory matrix. Its Local step sketches one
//     worker's row range and reports the tuple counts the modelled
//     sketch exchange charges; its Canonical step builds one sketch per
//     feature by inserting values in global row order, making candidate
//     splits independent of how the matrix is partitioned — the
//     property every cross-quadrant bit-identity guarantee in this
//     repository rests on. The pass recycles its sketch sets (GK.Reset)
//     and runs the canonical step on GOMAXPROCS goroutines over
//     contiguous feature ranges; each feature's sketch still sees its
//     values in row order, so the result is the same for any goroutine
//     count. The trainer's prep sketch (QD1–QD3), step 1 of the QD4
//     transformation and ingest.Prebinned (through Canonical) run it.
//   - internal/ingest feeds the same sketches incrementally while
//     streaming row blocks off disk, so one pass over the source derives
//     the bin boundaries stored in a .vbin cache. Because blocks are
//     re-sequenced into row order before insertion, the streaming pass
//     reproduces Canonical's splits exactly.
package sketch
