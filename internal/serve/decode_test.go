package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vero/gbdt"
	"vero/internal/datasets"
	"vero/internal/testutil"
)

// predictFixture trains a small binary model and returns it with a
// dataset whose rows make request bodies.
func predictFixture(t *testing.T) (*gbdt.Model, *gbdt.Dataset) {
	t.Helper()
	ds := testutil.Classification(t, datasets.SyntheticConfig{
		N: 600, D: 40, C: 2, InformativeRatio: 0.3, Density: 0.3, Seed: 21,
	})
	model, _, err := gbdt.Train(ds, gbdt.Options{Workers: 2, Trees: 8, Layers: 5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return model, ds
}

// predictBody encodes rows [lo, lo+n) of ds as a sparse predict request.
func predictBody(t *testing.T, ds *gbdt.Dataset, lo, n int) []byte {
	t.Helper()
	var req PredictRequest
	for i := lo; i < lo+n; i++ {
		feat, val := ds.X.Row(i % ds.NumInstances())
		req.Rows = append(req.Rows, SparseRow{Indices: feat, Values: val})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// serveBody sends one predict body through h and returns the recorder.
func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestPredictHandlerAllocs bounds the allocations one predict request
// makes in the handler once the scratch pool is warm, net of what the
// test's own request and recorder cost. What remains is the recorder's
// header snapshot and body: the margins are pooled with the request
// scratch and scoring boxes nothing. The reflection decoder and encoder
// made 35 for one row and 675 for 64; the unpooled margins and the boxed
// row source made 7.
func TestPredictHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries")
	}
	model, ds := predictFixture(t)
	srv, err := New(model, "m", Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	for _, rows := range []int{1, 64} {
		body := predictBody(t, ds, 0, rows)
		if rec := serveBody(h, body); rec.Code != http.StatusOK {
			t.Fatalf("%d rows: status %d: %s", rows, rec.Code, rec.Body.Bytes())
		}
		allocs := testing.AllocsPerRun(100, func() { serveBody(h, body) }) -
			testing.AllocsPerRun(100, func() { serveBody(noop, body) })
		if allocs > 5 {
			t.Errorf("%d rows: %.1f allocations per request, want at most 5", rows, allocs)
		}
	}
}

// TestOversizeBatchStopsAllocating sends a body of a million single-entry
// rows to a server whose batch limit is far lower: the decoder must stop
// storing rows at the limit, so the request allocates little beyond the
// body itself, and still answer 413. The reflection decoder allocated
// about 14 times the body.
func TestOversizeBatchStopsAllocating(t *testing.T) {
	srv, err := New(constModel(t, 1), "m", Options{MaxBatchRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const rows = 1_000_000
	body := []byte(`{"dense":[` + strings.Repeat(`[1],`, rows-1) + `[1]]}`)
	serveBody(h, []byte(`{"dense":[[1]]}`)) // warm the pool and the routes

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := serveBody(h, body)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.Bytes())
	}
	// The race detector makes sync.Pool drop entries, so the bound holds
	// only without it.
	allocated := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(len(body)) + 64<<10; allocated > limit && !raceEnabled {
		t.Fatalf("a %d-byte body allocated %d bytes, want at most %d", len(body), allocated, limit)
	}

	// Malformed past the limit is still 400, as the reference decoder
	// answers.
	bad := append(bytes.Clone(body[:len(body)-2]), `x]}`...)
	if rec := serveBody(h, bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed oversize body: status %d, want 400", rec.Code)
	}
}

// TestEncodeFailureAnswers500 serves a model whose margins overflow to
// +Inf: a response that cannot be encoded must answer 500 in the error
// envelope, never 200 with an empty body.
func TestEncodeFailureAnswers500(t *testing.T) {
	leaf := `{"num_class":1,"nodes":[{"feature":-1,"left":-1,"right":-1,"weights":[1e308]}]}`
	model, err := gbdt.DecodeModel([]byte(fmt.Sprintf(`{"num_class":1,"learning_rate":1,"init_score":[0],
		"objective":"square","num_feature":4,"trees":[%s,%s]}`, leaf, leaf)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(model, "m", Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		var env apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Error.Code != "internal" {
			t.Fatalf("%s: status %d, body %q; want 500 with code internal", name, rec.Code, rec.Body.Bytes())
		}
	}
	check("+Inf margin", serveBody(srv.Handler(), []byte(`{"dense":[[1]]}`)))

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, PredictResponse{Scores: [][]float64{{math.NaN()}}})
	check("NaN score", rec)
}

// TestRepeatedKeysDecodeInPlace repeats a key over a long row many
// times: the repeats must overwrite the row's elements where they are, so
// the arena stays proportional to the body rather than to the number of
// repeats times the row.
func TestRepeatedKeysDecodeInPlace(t *testing.T) {
	const long, repeats = 10000, 2000
	body := `{"rows":[{"indices":[` + strings.Repeat(`1,`, long-1) + `1]},{}]`
	body += strings.Repeat(`,"rows":[{"indices":[2]},{"indices":[2]}]`, repeats) + `}`
	sc := getScratch()
	defer putScratch(sc)
	status, err := sc.decode(strings.NewReader(body), -1, 64)
	if status != http.StatusBadRequest || err == nil { // the rows have indices but no values
		t.Fatalf("status %d (%v), want 400", status, err)
	}
	if n := len(sc.idx); n > long+2*repeats {
		t.Fatalf("arena grew to %d elements for a %d-element row and %d repeats", n, long, repeats)
	}
}

// TestPoolReuseUnderBatching sends distinct single-row and 64-row bodies
// from 8 goroutines at once with micro-batching on. Every response must
// equal offline scoring bit for bit: a scratch returned to the pool while
// the batcher still reads its rows would show as a wrong score.
func TestPoolReuseUnderBatching(t *testing.T) {
	model, ds := predictFixture(t)
	srv, err := New(model, "m", Options{
		Workers:     2,
		MaxInFlight: 16,
		Batch:       BatchConfig{Deadline: 200 * time.Microsecond, MaxRows: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pred, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const goroutines, perG = 8, 60
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				lo, n := (g*perG+i)*7, 1
				if i%5 == 0 {
					n = 64
				}
				var feats [][]uint32
				var vals [][]float32
				var req PredictRequest
				for r := lo; r < lo+n; r++ {
					f, v := ds.X.Row(r % ds.NumInstances())
					feats, vals = append(feats, f), append(vals, v)
					req.Rows = append(req.Rows, SparseRow{Indices: f, Values: v})
				}
				body, _ := json.Marshal(req)
				rec := serveBody(h, body)
				var resp PredictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
					return
				}
				want := pred.PredictRows(feats, vals)
				if len(resp.Scores) != n {
					t.Errorf("%d scores for %d rows", len(resp.Scores), n)
					return
				}
				for r, s := range resp.Scores {
					if math.Float64bits(s[0]) != math.Float64bits(want[r]) {
						t.Errorf("row %d of a %d-row request from %d: served %v, offline %v", r, n, lo, s[0], want[r])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestObserveStagesAllocs pins that the per-stage accounting is free of
// allocations on the request path.
func TestObserveStagesAllocs(t *testing.T) {
	var m modelMetrics
	if allocs := testing.AllocsPerRun(100, func() {
		m.observe(3*time.Millisecond, 1, false)
		m.observeStages(time.Millisecond, time.Millisecond, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("recording a request allocated %.1f times", allocs)
	}
}
