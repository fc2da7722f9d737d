package datasets

import (
	"fmt"
	"math/rand"

	"vero/internal/sparse"
)

// Task enumerates the supported learning tasks.
type Task string

// Supported task kinds.
const (
	TaskRegression Task = "regression"
	TaskBinary     Task = "binary"
	TaskMulti      Task = "multi"
)

// Dataset couples a feature matrix with labels.
type Dataset struct {
	Name     string
	X        *sparse.CSR
	Labels   []float32
	NumClass int // 1 for regression, 2 for binary, C for multi-class
	Task     Task
	// Prebin, when non-nil, carries candidate splits derived during
	// ingestion; a trainer with matching sketch parameters adopts them
	// instead of re-sketching. Split keeps it on the halves of a
	// quantized dataset (the splits stay authoritative for subsets of
	// cache-reconstructed values) and drops it for raw datasets.
	Prebin *Prebin
	// Blocks, when non-nil with X nil, serves the binned matrix from
	// out-of-core storage; see BlockSource.
	Blocks BlockSource
	// Shard, when non-nil, marks this dataset as one rank's shard of a
	// larger global image: X keeps the global shape but holds entries only
	// inside the shard's row or column range (labels and candidate splits
	// stay full — every quadrant needs them). See Shard.
	Shard *Shard
}

// NumInstances returns N.
func (d *Dataset) NumInstances() int {
	if d.OutOfCore() {
		return d.Blocks.Rows()
	}
	return d.X.Rows()
}

// NumFeatures returns D.
func (d *Dataset) NumFeatures() int {
	if d.OutOfCore() {
		return d.Blocks.Cols()
	}
	return d.X.Cols()
}

// SyntheticConfig parametrizes the paper's generator.
type SyntheticConfig struct {
	N, D, C          int
	InformativeRatio float64 // p: fraction of features with nonzero weights
	Density          float64 // phi: expected fraction of nonzero features per instance
	Seed             int64
	// LabelNoise flips this fraction of labels uniformly at random
	// (classification only). The paper's generator is noise-free; a small
	// noise level makes convergence curves realistic.
	LabelNoise float64
	// InformativeBoost is the probability that a sampled feature is drawn
	// from the informative set rather than uniformly — the way frequent
	// words carry the signal in real high-dimensional text corpora (RCV1).
	// Zero keeps the paper's uniform sampling; high-dimensional simulacra
	// use a small boost so their labels are learnable at laptop N.
	InformativeBoost float64
}

// validate normalizes and checks the configuration.
func (c *SyntheticConfig) validate() error {
	if c.N <= 0 || c.D <= 0 {
		return fmt.Errorf("datasets: invalid shape N=%d D=%d", c.N, c.D)
	}
	if c.C < 2 {
		return fmt.Errorf("datasets: synthetic classification needs C >= 2, got %d", c.C)
	}
	if c.InformativeRatio <= 0 || c.InformativeRatio > 1 {
		return fmt.Errorf("datasets: informative ratio %v out of (0,1]", c.InformativeRatio)
	}
	if c.Density <= 0 || c.Density > 1 {
		return fmt.Errorf("datasets: density %v out of (0,1]", c.Density)
	}
	return nil
}

// Synthetic generates a classification dataset per the paper's process
// (Section 5.2, p = phi = 0.2 in their experiments).
func Synthetic(cfg SyntheticConfig) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Informative feature set: pD features carry nonzero weight rows.
	nInf := int(cfg.InformativeRatio * float64(cfg.D))
	if nInf < 1 {
		nInf = 1
	}
	perm := rng.Perm(cfg.D)[:nInf]
	weights := make(map[int][]float64, nInf)
	for _, f := range perm {
		row := make([]float64, cfg.C)
		for k := range row {
			row[k] = rng.NormFloat64()
		}
		weights[f] = row
	}

	b := sparse.NewCSRBuilder(cfg.D)
	labels := make([]float32, cfg.N)
	scores := make([]float64, cfg.C)
	kvs := make([]sparse.KV, 0, int(cfg.Density*float64(cfg.D))+8)
	nnzPerRow := int(cfg.Density * float64(cfg.D))
	if nnzPerRow < 1 {
		nnzPerRow = 1
	}
	for i := 0; i < cfg.N; i++ {
		kvs = kvs[:0]
		for k := range scores {
			scores[k] = 0
		}
		// Sample nnzPerRow distinct features via rejection on a
		// light-weight set to stay O(nnz).
		seen := make(map[int]struct{}, nnzPerRow)
		for len(seen) < nnzPerRow {
			var f int
			if cfg.InformativeBoost > 0 && rng.Float64() < cfg.InformativeBoost {
				f = perm[rng.Intn(len(perm))]
			} else {
				f = rng.Intn(cfg.D)
			}
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			v := rng.NormFloat64()
			kvs = append(kvs, sparse.KV{Index: uint32(f), Value: float32(v)})
			if w, ok := weights[f]; ok {
				for k := range scores {
					scores[k] += v * w[k]
				}
			}
		}
		best := 0
		for k := 1; k < cfg.C; k++ {
			if scores[k] > scores[best] {
				best = k
			}
		}
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			best = rng.Intn(cfg.C)
		}
		labels[i] = float32(best)
		if err := b.AddRow(kvs); err != nil {
			return nil, err
		}
	}
	task := TaskMulti
	if cfg.C == 2 {
		task = TaskBinary
	}
	return &Dataset{
		Name:     fmt.Sprintf("synthetic-n%d-d%d-c%d", cfg.N, cfg.D, cfg.C),
		X:        b.Build(),
		Labels:   labels,
		NumClass: cfg.C,
		Task:     task,
	}, nil
}

// SyntheticRegression generates a regression dataset y = x.w + noise from
// the same sparse-feature process.
func SyntheticRegression(n, d int, density float64, noise float64, seed int64) (*Dataset, error) {
	cfg := SyntheticConfig{N: n, D: d, C: 2, InformativeRatio: 1, Density: density, Seed: seed}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b := sparse.NewCSRBuilder(d)
	labels := make([]float32, n)
	nnzPerRow := int(density * float64(d))
	if nnzPerRow < 1 {
		nnzPerRow = 1
	}
	for i := 0; i < n; i++ {
		var kvs []sparse.KV
		seen := make(map[int]struct{}, nnzPerRow)
		var y float64
		for len(seen) < nnzPerRow {
			f := rng.Intn(d)
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			v := rng.NormFloat64()
			kvs = append(kvs, sparse.KV{Index: uint32(f), Value: float32(v)})
			y += v * w[f]
		}
		labels[i] = float32(y + noise*rng.NormFloat64())
		if err := b.AddRow(kvs); err != nil {
			return nil, err
		}
	}
	return &Dataset{
		Name:     fmt.Sprintf("synthetic-reg-n%d-d%d", n, d),
		X:        b.Build(),
		Labels:   labels,
		NumClass: 1,
		Task:     TaskRegression,
	}, nil
}

// Split partitions the dataset into train and validation parts by a
// deterministic shuffled split. frac is the training fraction. Each part's
// rows are copied as stored, into arrays sized to the part's nnz.
func (d *Dataset) Split(frac float64, seed int64) (train, valid *Dataset) {
	n := d.NumInstances()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	nTrain := int(frac * float64(n))
	build := func(ids []int, suffix string) *Dataset {
		nnz := 0
		for _, i := range ids {
			nnz += d.X.RowNNZ(i)
		}
		rowPtr := make([]int64, 1, len(ids)+1)
		feat := make([]uint32, 0, nnz)
		val := make([]float32, 0, nnz)
		labels := make([]float32, len(ids))
		for k, i := range ids {
			f, v := d.X.Row(i)
			feat = append(feat, f...)
			val = append(val, v...)
			rowPtr = append(rowPtr, int64(len(feat)))
			labels[k] = d.Labels[i]
		}
		x, err := sparse.NewCSR(len(ids), d.NumFeatures(), rowPtr, feat, val)
		if err != nil {
			panic(err) // unreachable: the rows come from a valid matrix
		}
		out := &Dataset{
			Name:     d.Name + suffix,
			X:        x,
			Labels:   labels,
			NumClass: d.NumClass,
			Task:     d.Task,
		}
		// A quantized dataset's values are bin representatives: its splits
		// stay authoritative for any subset (re-sketching representatives
		// is exactly what Prebin.Quantized guards against), so the halves
		// inherit the prebin. Raw datasets drop it — re-sketching a raw
		// subset is the correct canonical behavior.
		if d.Prebin != nil && d.Prebin.Quantized {
			out.Prebin = d.Prebin
		}
		return out
	}
	return build(perm[:nTrain], "-train"), build(perm[nTrain:], "-valid")
}
