package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vero/gbdt"
	"vero/internal/cluster"
	"vero/internal/core"
	"vero/internal/sketch"
	"vero/internal/systems"
)

// source is where a training workload's operation reads its data from.
type source int

const (
	fromMemory source = iota // gbdt.Train on the in-memory dataset
	fromCache                // gbdt.TrainFile on the .vbin a cold LibSVM ingest wrote
	fromImage                // gbdt.TrainFile on a .vbin image written directly
)

// trainSpec fixes one training workload. Every workload trains on the
// default sequential simulation of workers workers, so compute uses one
// core.
type trainSpec struct {
	quadrant  gbdt.Quadrant
	data      gbdt.SyntheticConfig // training rows plus holdout
	holdout   int
	src       source
	outOfCore bool
	memBudget int64
}

const (
	workers = 4
	trees   = 10
	layers  = 7
	mib     = 1 << 20
)

var (
	// trainSketch is the in-memory QD2 path every paper experiment takes;
	// quantile sketching is about half of each call.
	trainSketch = trainSpec{
		quadrant: gbdt.QD2,
		data:     gbdt.SyntheticConfig{N: 60000, D: 100, C: 2, Density: 0.3, InformativeRatio: 0.2, LabelNoise: 0.05},
		holdout:  10000,
		src:      fromMemory,
	}
	// trainVero is QD4 multi-class on high-dimensional sparse data,
	// trained from a warm cache whose prebin bypasses sketching.
	trainVero = trainSpec{
		quadrant: gbdt.QD4,
		data:     gbdt.SyntheticConfig{N: 25000, D: 2000, C: 5, Density: 0.02, InformativeRatio: 0.02, InformativeBoost: 0.3, LabelNoise: 0.03},
		holdout:  5000,
		src:      fromCache,
	}
	// trainOOC streams QD4 binary training from an mmap view of a .vbin
	// image more than three times the memory budget.
	trainOOC = trainSpec{
		quadrant:  gbdt.QD4,
		data:      gbdt.SyntheticConfig{N: 110000, D: 200, C: 2, Density: 0.1, InformativeRatio: 0.2, LabelNoise: 0.05},
		holdout:   10000,
		src:       fromImage,
		outOfCore: true,
		memBudget: 3 * mib,
	}
)

// trainBench measures one user-level training call per operation.
type trainBench struct {
	spec  trainSpec
	opts  gbdt.Options
	train *gbdt.Dataset // fromMemory only
	valid *gbdt.Dataset
	path  string // the .vbin the file-based workloads train from
	cold  []float64
}

func newTrainBench(spec trainSpec) *trainBench {
	return &trainBench{spec: spec, opts: gbdt.Options{
		Quadrant:  spec.quadrant,
		Workers:   workers,
		Trees:     trees,
		Layers:    layers,
		NumClass:  spec.data.C,
		OutOfCore: spec.outOfCore,
		MemBudget: spec.memBudget,
	}}
}

func (b *trainBench) close() {}

func (b *trainBench) setUp(r *runner, dir string, parent int64) error {
	start := time.Now()
	train, valid, err := generate(b.spec.data, b.spec.holdout, r.seed)
	if err != nil {
		return err
	}
	r.tr.add("setup.generate", parent, 1, start, time.Now())
	b.valid, b.train, b.path = valid, nil, ""

	switch b.spec.src {
	case fromMemory:
		b.train = train
	case fromCache:
		start = time.Now()
		src := filepath.Join(dir, "train.libsvm")
		if err := writeLibSVM(src, train); err != nil {
			return err
		}
		r.tr.add("setup.write", parent, 1, start, time.Now())
		start = time.Now()
		opts := b.opts
		opts.CacheDir = dir
		if _, status, err := gbdt.IngestFile(src, opts); err != nil {
			return err
		} else if status != gbdt.IngestCold {
			return fmt.Errorf("ingest of a fresh file reported %q, want %q", status, gbdt.IngestCold)
		}
		end := time.Now()
		r.tr.add("ingest.cold", parent, 1, start, end)
		b.cold = append(b.cold, end.Sub(start).Seconds())
		images, err := filepath.Glob(filepath.Join(dir, "*.vbin"))
		if err != nil || len(images) != 1 {
			return fmt.Errorf("cold ingest left %d cache images in %s (%v)", len(images), dir, err)
		}
		b.path = images[0]
	case fromImage:
		start = time.Now()
		b.path = filepath.Join(dir, "train.vbin")
		if err := gbdt.WriteCacheFile(b.path, train, b.opts); err != nil {
			return err
		}
		r.tr.add("setup.write", parent, 1, start, time.Now())
		fi, err := os.Stat(b.path)
		if err != nil {
			return err
		}
		if fi.Size() < 3*b.spec.memBudget {
			return fmt.Errorf("image of %d bytes is under three memory budgets (%d bytes)", fi.Size(), b.spec.memBudget)
		}
	}
	return nil
}

// dataSeed fixes each generator's concept (its informative features and
// weights), so every run of a workload learns a function of the same
// difficulty and runs stay comparable across seeds. The run's seed draws
// which rows are held out and the order of the training rows.
const dataSeed = 1

// generate draws cfg's rows and splits off holdout of them by seed.
func generate(cfg gbdt.SyntheticConfig, holdout int, seed int64) (train, valid *gbdt.Dataset, err error) {
	cfg.Seed = dataSeed
	full, err := gbdt.Synthetic(cfg)
	if err != nil {
		return nil, nil, err
	}
	train, valid = full.Split(float64(cfg.N-holdout)/float64(cfg.N), seed)
	return train, valid, nil
}

func writeLibSVM(path string, ds *gbdt.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gbdt.WriteLibSVM(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// trainOut is what one training operation produced.
type trainOut struct {
	model   []byte
	wall    time.Duration
	cpu     time.Duration
	simTree float64            // mean of Report.PerTreeSeconds
	layers  map[string]float64 // traced operations only
}

// op is one untraced user-level training call.
func (b *trainBench) op() (trainOut, *gbdt.Model, error) {
	cpu0 := cpuTime()
	start := time.Now()
	var (
		m   *gbdt.Model
		rep *gbdt.Report
		err error
	)
	if b.path == "" {
		m, rep, err = gbdt.Train(b.train, b.opts)
	} else {
		m, rep, err = gbdt.TrainFile(b.path, b.opts)
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	if err != nil {
		return trainOut{}, nil, err
	}
	enc, err := m.Encode()
	if err != nil {
		return trainOut{}, nil, err
	}
	return trainOut{model: enc, wall: wall, cpu: cpu, simTree: mean(rep.PerTreeSeconds)}, m, nil
}

// tracedOp performs the same training call through the layers the
// façade composes — the ingest entry point, then the simulated cluster
// the benchmark owns — so the cluster's ledgers can be read afterwards.
// It records a span per layer call and one per tree.
func (b *trainBench) tracedOp(r *runner) (trainOut, error) {
	root := r.tr.reserve()
	start := time.Now()
	ds := b.train
	var loadSec float64
	if b.path != "" {
		t0 := time.Now()
		var err error
		if ds, _, err = gbdt.IngestFile(b.path, b.opts); err != nil {
			return trainOut{}, err
		}
		defer ds.Close()
		t1 := time.Now()
		r.tr.add("ingest.load", root, 1, t0, t1)
		loadSec = t1.Sub(t0).Seconds()
	}
	sys, err := systems.ForQuadrant(b.spec.quadrant)
	if err != nil {
		return trainOut{}, err
	}
	cl := cluster.New(workers, cluster.Gigabit())
	var treeAt []time.Time
	cfg := core.Config{
		Trees:     trees,
		Layers:    layers,
		NumClass:  b.spec.data.C,
		MemBudget: b.spec.memBudget,
		OnTree:    func(int, float64, *gbdt.Tree) { treeAt = append(treeAt, time.Now()) },
	}
	coreStart := time.Now()
	res, err := systems.Train(cl, ds, sys, cfg)
	end := time.Now()
	if err != nil {
		return trainOut{}, err
	}
	r.tr.addID(root, "train", 0, 1, start, end)
	coreID := r.tr.add("core.train", root, 1, coreStart, end)
	enc, err := res.Forest.Encode()
	if err != nil {
		return trainOut{}, err
	}

	lm := ledger(cl)
	lm["ingest.load_s"] = loadSec
	prep, tree := treeSpans(r.tr, coreID, coreStart, treeAt)
	lm["core.prep_s"], lm["core.tree_s"] = prep.Seconds(), tree.Seconds()
	wall := end.Sub(start)
	lm["core.unattributed_share"] = 1 - lm["core.worker_busy_s"]/wall.Seconds()
	return trainOut{model: enc, wall: wall, simTree: mean(res.PerTreeSeconds), layers: lm}, nil
}

// ledger reads the per-layer figures the simulated cluster accumulated
// over one training call.
func ledger(cl *cluster.Cluster) map[string]float64 {
	st := cl.Stats()
	m := map[string]float64{
		"prep.sketch.comp_s": st.Phase("prep.sketch").CompSeconds,
		"histogram.peak_mib": float64(st.Mem("histogram").MaxPeak()) / mib,
	}
	for _, ph := range []string{"gradient", "histogram", "split", "node", "update"} {
		m["train."+ph+".comp_s"] = st.Phase("train." + ph).CompSeconds
	}
	for _, name := range st.PhaseNames() {
		if strings.HasPrefix(name, "transform.") {
			m["transform.comp_s"] += st.Phase(name).CompSeconds
		}
	}
	var busy, peak float64
	wc := st.WorkerComp()
	for _, d := range wc {
		busy += d.Seconds()
		peak = max(peak, d.Seconds())
	}
	m["core.worker_busy_s"] = busy
	m["core.worker_imbalance"] = ratio(peak, busy/float64(len(wc)))
	_, comm, bytes := st.Totals()
	m["comm.bytes_per_tree"] = float64(bytes) / trees
	m["comm.sim_s_per_tree"] = comm / trees
	return m
}

// treeSpans turns the OnTree timestamps of one training call into spans:
// one per tree, and a prep span from the call's start to where the first
// tree began. The first tree's start is not observable, so it is taken to
// be one median tree before the first callback. It returns the prep time
// and the median tree time.
func treeSpans(tr *tracer, parent int64, start time.Time, at []time.Time) (prep, tree time.Duration) {
	if len(at) == 0 {
		return 0, 0
	}
	gaps := make([]float64, 0, len(at))
	for i := 1; i < len(at); i++ {
		gaps = append(gaps, float64(at[i].Sub(at[i-1])))
	}
	tree = time.Duration(median(gaps))
	firstStart := at[0].Add(-tree)
	if firstStart.Before(start) {
		firstStart = start
	}
	tr.add("core.prep", parent, 1, start, firstStart)
	prev := firstStart
	for _, t := range at {
		tr.add("core.tree", parent, 1, prev, t)
		prev = t
	}
	return firstStart.Sub(start), tree
}

func (b *trainBench) run(r *runner) error {
	var (
		ref    []byte      // the first model's encoding; every other must match
		first  *gbdt.Model // for the held-out check
		walls  []float64   // untraced calls, ms
		cpus   []float64   // untraced calls, CPU ms
		traced []float64   // traced calls, ms
		sims   []float64
		layerv = make(map[string][]float64) // per-layer samples of the traced calls
	)
	check := func(out trainOut, err error) bool {
		if err == nil && ref != nil {
			err = sameBytes("model", ref, out.model)
		}
		return r.checks.record(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	minOps := 3
	if r.traced() {
		minOps = 4 // two traced and two untraced calls
	}
	for i := 0; i < minOps || time.Since(begin) < r.seconds; i++ {
		// Every call starts from a collected heap, so no call pays for
		// the garbage of the one before it.
		runtime.GC()
		if r.traced() && i%2 == 1 {
			out, err := b.tracedOp(r)
			if check(out, err) {
				traced = append(traced, float64(out.wall)/1e6)
				for k, v := range out.layers {
					layerv[k] = append(layerv[k], v)
				}
			}
			continue
		}
		out, m, err := b.op()
		if !check(out, err) {
			continue
		}
		if ref == nil {
			ref, first = out.model, m
		}
		walls = append(walls, float64(out.wall)/1e6)
		cpus = append(cpus, float64(out.cpu)/1e6)
		sims = append(sims, out.simTree)
	}
	window := time.Since(begin).Seconds()
	runtime.ReadMemStats(&ms1)
	ops := len(walls) + len(traced)

	if first == nil {
		return fmt.Errorf("no training call succeeded")
	}
	logloss := gbdt.LogLoss(first, b.valid)
	r.checks.record(belowConstant(logloss, b.spec.data.C))

	r.set("op_alloc_mib", float64(ms1.TotalAlloc-ms0.TotalAlloc)/mib/float64(ops), ops)
	r.noteTimes(walls, ops, window, median(cpus))
	r.set("core.sim_tree_s", median(sims), len(sims))
	r.set("valid_logloss", logloss, b.valid.NumInstances())

	if b.spec.outOfCore {
		// The streamed model must equal an in-memory train on the same image.
		opts := b.opts
		opts.OutOfCore = false
		start := time.Now()
		m, _, err := gbdt.TrainFile(b.path, opts)
		end := time.Now()
		if err == nil {
			var enc []byte
			if enc, err = m.Encode(); err == nil {
				err = sameBytes("in-memory model of the streamed image", ref, enc)
			}
		}
		r.checks.record(err)
		r.tr.add("train.in_memory", 0, 1, start, end)
		r.set("stream.fraction", end.Sub(start).Seconds()/(median(walls)/1e3), 1)
	}
	if !r.traced() {
		return nil
	}
	for k, vs := range layerv {
		r.set(k, median(vs), len(vs))
	}
	if len(b.cold) > 0 {
		r.set("ingest.cold_s", median(b.cold), len(b.cold))
	}
	gcs := (ms1.NumGC - ms0.NumGC) - (ms1.NumForcedGC - ms0.NumForcedGC) // not the collections between calls
	r.set("runtime.gc_per_op", float64(gcs)/float64(ops), ops)
	r.set("trace.overhead", median(traced)/median(walls), len(traced))
	if b.spec.src == fromMemory {
		// Canonical is the sketch pass the trainer runs outside every
		// worker's ledger; time it alone on the same matrix.
		var secs []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			sketch.Canonical(b.train.X, 0.01) // core.Config's default SketchEps
			end := time.Now()
			r.tr.add("sketch.canonical", 0, 1, start, end)
			secs = append(secs, end.Sub(start).Seconds())
		}
		r.set("sketch.canonical_s", median(secs), len(secs))
	}
	return nil
}
