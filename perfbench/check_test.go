package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
)

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	if !tl.record(nil) {
		t.Error("a nil error counted as a failure")
	}
	boom := errors.New("boom")
	if tl.record(boom) {
		t.Error("an error counted as a success")
	}
	tl.record(errors.New("later"))
	a, f, first := tl.counts()
	if a != 3 || f != 2 || !errors.Is(first, boom) {
		t.Errorf("counts = %d, %d, %v; want 3, 2, boom", a, f, first)
	}
}

func TestMismatchedModelIsAFailure(t *testing.T) {
	var tl tally
	ref := []byte(`{"trees":[1,2,3]}`)
	tl.record(sameBytes("model", ref, []byte(`{"trees":[1,2,3]}`)))
	tl.record(sameBytes("model", ref, []byte(`{"trees":[1,2,4]}`)))
	tl.record(sameBytes("model", ref, ref[:5]))
	if a, f, _ := tl.counts(); a != 3 || f != 2 {
		t.Errorf("attempted %d, failed %d; want 3, 2", a, f)
	}
}

func TestMismatchedScoreIsAFailure(t *testing.T) {
	want := []float64{0.5, -1.25, 3, 4}
	if err := sameScores(want, [][]float64{{0.5, -1.25}, {3, 4}}, 2); err != nil {
		t.Errorf("equal scores rejected: %v", err)
	}
	next := math.Nextafter(4, 5) // one ulp away
	for name, got := range map[string][][]float64{
		"ulp":       {{0.5, -1.25}, {3, next}},
		"extra row": {{0.5, -1.25}, {3, 4}, {0, 0}},
		"short row": {{0.5, -1.25}, {3}},
		"rows":      {{0.5, -1.25}},
	} {
		var tl tally
		tl.record(sameScores(want, got, 2))
		if _, f, _ := tl.counts(); f != 1 {
			t.Errorf("%s: mismatched scores not counted as a failure", name)
		}
	}
	if err := sameScores([]float64{0}, [][]float64{{math.Copysign(0, -1)}}, 1); err == nil {
		t.Error("-0 accepted for +0: the comparison is not bitwise")
	}
}

func TestBelowConstant(t *testing.T) {
	if err := belowConstant(0.6, 2); err != nil {
		t.Error(err)
	}
	for _, ll := range []float64{math.Ln2, 0.7, math.NaN()} {
		if belowConstant(ll, 2) == nil {
			t.Errorf("log-loss %v passed for a binary model", ll)
		}
	}
	if belowConstant(1.6, 5) != nil || belowConstant(1.61, 5) == nil {
		t.Error("ln 5 limit misapplied")
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units the
// command prints in step with the benchmark definition at the repository
// root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d] = %v, BENCHMARK.json has %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, def.EndToEnd)
	same("per_layer", perLayer, def.PerLayer)
	if len(def.Workloads) != len(workloads) {
		t.Errorf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(def.Workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
}
