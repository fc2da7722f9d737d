package gbdt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func quickTrain(t *testing.T, sys System) (*Model, *Report, *Dataset, *Dataset) {
	t.Helper()
	ds, err := Synthetic(SyntheticConfig{N: 1500, D: 40, C: 2, InformativeRatio: 0.4, Density: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	train, valid := ds.Split(0.8, 2)
	m, r, err := Train(train, Options{System: sys, Workers: 4, Trees: 5, Layers: 5, Splits: 16})
	if err != nil {
		t.Fatal(err)
	}
	return m, r, train, valid
}

func TestTrainDefaultsToVero(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{N: 400, D: 20, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, r, err := Train(ds, Options{Trees: 2, Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTrees() != 2 {
		t.Fatalf("NumTrees = %d", m.NumTrees())
	}
	if r.TransformBytes.BlockifiedShuffle == 0 {
		t.Fatal("default system did not run the Vero transformation")
	}
}

func TestTrainAndEvaluate(t *testing.T) {
	m, r, train, valid := quickTrain(t, SystemVero)
	if auc := AUC(m, valid); auc < 0.7 {
		t.Fatalf("AUC = %v", auc)
	}
	if acc := Accuracy(m, valid); acc < 0.6 {
		t.Fatalf("accuracy = %v", acc)
	}
	if ll := LogLoss(m, train); ll > 0.69 { // below ln 2: learned something
		t.Fatalf("train logloss = %v", ll)
	}
	if len(r.PerTreeSeconds) != 5 || r.CommBytes <= 0 || r.HistogramPeakBytes <= 0 || r.DataBytes <= 0 {
		t.Fatalf("report incomplete: %+v", r)
	}
}

func TestModelRoundTrip(t *testing.T) {
	m, _, _, valid := quickTrain(t, SystemLightGBM)
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Predict(valid)
	b := back.Predict(valid)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d changed after round trip", i)
		}
	}
	if _, err := DecodeModel([]byte("junk")); err == nil {
		t.Fatal("DecodeModel accepted junk")
	}
}

func TestOnTreeHook(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{N: 400, D: 20, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	_, _, err = Train(ds, Options{System: SystemLightGBM, Workers: 2, Trees: 3, Layers: 4,
		OnTree: func(i int, elapsed float64, _ *Tree) { n++ }})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("hook ran %d times", n)
	}
}

func TestLibSVMFileRoundTrip(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{N: 100, D: 15, C: 2, InformativeRatio: 0.5, Density: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, ds); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.libsvm")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLibSVMFile(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInstances() != 100 {
		t.Fatalf("rows = %d", back.NumInstances())
	}
	if _, err := ReadLibSVMFile(filepath.Join(t.TempDir(), "missing"), 2); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRegressionAPI(t *testing.T) {
	ds, err := SyntheticRegression(800, 15, 0.5, 0.05, 6)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Train(ds, Options{System: SystemLightGBM, Workers: 2, Trees: 8, Layers: 5,
		Objective: "square"})
	if err != nil {
		t.Fatal(err)
	}
	if rmse := RMSE(m, ds); math.IsNaN(rmse) || rmse <= 0 {
		t.Fatalf("RMSE = %v", rmse)
	}
}

func TestNamedDatasetAndCatalog(t *testing.T) {
	if len(DatasetCatalog()) < 11 {
		t.Fatalf("catalog has %d entries", len(DatasetCatalog()))
	}
	ds, err := NamedDataset("taste", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumClass < 3 {
		t.Fatalf("taste has %d classes", ds.NumClass)
	}
}

func TestSystemsListAndDescriptions(t *testing.T) {
	ss := Systems()
	if len(ss) != 7 {
		t.Fatalf("got %d systems", len(ss))
	}
	for _, s := range ss {
		if DescribeSystem(s) == "" {
			t.Errorf("%s has no description", s)
		}
	}
}

func TestCostModelAPI(t *testing.T) {
	r, err := AnalyzeCost(AgeExampleWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r.HistogramBytes != 950_400_000 {
		t.Fatalf("Sizehist = %d", r.HistogramBytes)
	}
}

func TestTrainRejectsNonFiniteLabels(t *testing.T) {
	tasks := []struct {
		name string
		make func() (*Dataset, error)
		opts Options
	}{
		{"binary", func() (*Dataset, error) {
			return Synthetic(SyntheticConfig{N: 300, D: 10, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 3})
		}, Options{}},
		{"multiclass", func() (*Dataset, error) {
			return Synthetic(SyntheticConfig{N: 300, D: 10, C: 3, InformativeRatio: 0.5, Density: 0.5, Seed: 3})
		}, Options{}},
		{"regression", func() (*Dataset, error) { return SyntheticRegression(300, 10, 0.5, 0.05, 3) },
			Options{Objective: "square"}},
	}
	for _, task := range tasks {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			ds, err := task.make()
			if err != nil {
				t.Fatal(err)
			}
			ds.Labels[7] = float32(bad)
			opts := task.opts
			opts.Workers, opts.Trees, opts.Layers = 2, 2, 3
			_, _, err = Train(ds, opts)
			want := fmt.Sprintf("core: label of row 7 is %v; labels must be finite", float32(bad))
			if err == nil || err.Error() != want {
				t.Errorf("%s with label %v: error %v, want %q", task.name, bad, err, want)
			}
		}
	}
}

func TestTrainRejectsHyperParametersOutsideDomain(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{N: 200, D: 8, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(*Options)
		want string
	}{
		{"negative gamma", func(o *Options) { o.Gamma = -0.1 }, "Gamma = -0.1"},
		{"NaN gamma", func(o *Options) { o.Gamma = nan }, "Gamma = NaN"},
		{"infinite gamma", func(o *Options) { o.Gamma = inf }, "Gamma = +Inf"},
		{"negative min child hess", func(o *Options) { o.MinChildHess = -1 }, "MinChildHess = -1"},
		{"NaN min child hess", func(o *Options) { o.MinChildHess = nan }, "MinChildHess = NaN"},
		{"negative lambda", func(o *Options) { o.Lambda = -1 }, "Lambda = -1"},
		{"infinite lambda", func(o *Options) { o.Lambda = inf }, "Lambda = +Inf"},
		{"negative learning rate", func(o *Options) { o.LearningRate = -0.3 }, "LearningRate = -0.3"},
		{"NaN learning rate", func(o *Options) { o.LearningRate = nan }, "LearningRate = NaN"},
		{"infinite learning rate", func(o *Options) { o.LearningRate = -inf }, "LearningRate = -Inf"},
	}
	for _, tc := range cases {
		opts := Options{Workers: 2, Trees: 1, Layers: 3}
		tc.set(&opts)
		_, _, err := Train(ds, opts)
		if !errors.Is(err, ErrHyperParameter) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want ErrHyperParameter naming %q", tc.name, err, tc.want)
		}
	}
	// The boundary values are inside the domain.
	if _, _, err := Train(ds, Options{Workers: 2, Trees: 1, Layers: 3, Gamma: 0, MinChildHess: 0, LearningRate: 1e-9}); err != nil {
		t.Fatalf("zero gamma and min child hess: %v", err)
	}
}
