package core

import (
	"vero/internal/partition"
	"vero/internal/tree"
)

// engine is the quadrant-strategy seam of the trainer: everything the
// layer-wise boosting loop needs that depends on the data-management
// policy (partitioning scheme x storage pattern) lives behind this
// interface. The trainer owns the loop, the shared run state (predictions,
// gradients, hessians) and the candidate splits; an engine owns the
// quadrant's data shards, node/instance indexes and histogram maps.
//
// Two implementations cover Figure 1: horizontalEngine (QD1/QD2, disjoint
// row ranges with all features, aggregated histograms) and verticalEngine
// (QD3/QD4, complete columns for disjoint feature subsets, local
// histograms with placement broadcasts). prep.go constructs the engine
// matching Config.Quadrant; resolveAuto lets the advisor pick it.
type engine interface {
	// prepare materializes the engine's per-worker data layout (binning,
	// repartitioning, index and histogram-map allocation), charging the
	// preparation communication. Called once, before any run.
	prepare() error
	// beginRun allocates per-run scratch that depends on run geometry
	// (e.g. the vertical quadrants' redundant-compute gradient buffers).
	// Called after the trainer's shared run state exists.
	beginRun()
	// computeGradients refreshes the trainer's gradient/hessian vectors
	// with the engine's work placement (horizontal: own rows; vertical:
	// every worker processes all instances, Section 4.2.1 step 5).
	computeGradients()
	// rootTotals returns the gradient/hessian totals over all instances.
	rootTotals() ([]float64, []float64)
	// layerSplits grows one layer's histograms and returns each frontier
	// node's best split (keyed by node id), with the work placed where the
	// quadrant's aggregation puts it. Nodes marked buildDirect are built by
	// scanning instances; each sibling derives as parent minus the built
	// node (Section 2.1.2), consuming the parent's entry. When last is set
	// the children will be leaves, so every histogram of the layer is
	// released before layerSplits returns.
	layerSplits(frontier []*nodeInfo, last bool) map[int32]resolvedSplit
	// applyLayer propagates one layer's split placements into the
	// engine's node/instance indexes.
	applyLayer(splits map[int32]resolvedSplit, children map[int32][2]int32)
	// childStats fills count and gradient totals of the new children.
	childStats(nodes []*nodeInfo)
	// updatePredictions adds the finished tree's leaf weights to the raw
	// scores of every instance.
	updatePredictions(tr *tree.Tree)
	// resetIndexes returns the engine's node/instance indexes to the
	// single-root state at the start of each tree.
	resetIndexes()

	// dropHist releases one node's histogram on every worker, if present,
	// with its memory-gauge charge (the engine owns its histogram maps).
	dropHist(id int32)
	// usesSubtraction reports whether the engine derives sibling
	// histograms by subtraction (false only for QD1, whose shared
	// accumulators cannot retain per-parent state).
	usesSubtraction() bool

	// transformReport returns the byte report of the engine's data
	// preparation wire traffic (nonzero only for QD4's
	// horizontal-to-vertical transformation).
	transformReport() partition.ByteReport
}

// siblingOf returns the sibling's node id: children are always created in
// pairs (left = parent's recorded left child).
func siblingOf(nd *nodeInfo) int32 {
	// Children pairs are allocated adjacently by tree.Split: left is even
	// offset, right = left+1. The derive node's sibling is the adjacent id.
	if nd.id%2 == 1 { // left children have odd ids (root=0, then 1,2,3,4...)
		return nd.id + 1
	}
	return nd.id - 1
}

// buildNodes returns the frontier nodes whose histograms are built by
// scanning instances; every other node derives from its parent.
func buildNodes(frontier []*nodeInfo) []*nodeInfo {
	var out []*nodeInfo
	for _, nd := range frontier {
		if nd.buildDirect {
			out = append(out, nd)
		}
	}
	return out
}
