package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vero/gbdt"
	"vero/internal/serve"
)

// The serving workload: a 100-tree × 6-layer binary model on 200 features
// behind the in-process HTTP handler with default options (batching off),
// driven closed-loop by one client per connection over loopback.
const (
	serveTrees   = 100
	serveLayers  = 6
	clients      = 2   // one closed-loop client per core of the 2-core reference machine
	poolSize     = 500 // distinct pre-encoded request bodies
	batchRows    = 64  // rows of a batch request
	batchShare   = 10  // percent of requests that are batch requests
	sampleEvery  = 64  // traced requests between two sampled request spans
	sliceSeconds = 1   // traced and untraced slices alternate at this period
)

var serveData = gbdt.SyntheticConfig{N: 22000, D: 200, C: 2, Density: 0.1, InformativeRatio: 0.2, LabelNoise: 0.05}

const serveHoldout = 16000 // a large evaluation set keeps valid_logloss steady across seeds

// body is one pre-encoded predict request and the response it must get.
type body struct {
	payload []byte
	rows    int
	feats   [][]uint32
	vals    [][]float32
	want    []byte // the verified response, compared byte for byte
}

type serveBench struct {
	model  *gbdt.Model
	valid  *gbdt.Dataset
	srv    *serve.Server
	hsrv   *http.Server
	served chan struct{} // closed once hsrv.Serve has returned
	url    string
	pool   []body

	tracing   atomic.Bool  // set during traced slices of the traced run
	handlerNs atomic.Int64 // handler time of requests in traced slices
	handlerN  atomic.Int64 // and their count
	tr        *tracer
}

const spanHeader = "X-Perfbench-Span"

func (b *serveBench) setUp(r *runner, dir string, parent int64) error {
	b.close()
	b.tr = r.tr
	start := time.Now()
	train, valid, err := generate(serveData, serveHoldout, r.seed)
	if err != nil {
		return err
	}
	b.valid = valid
	t1 := time.Now()
	r.tr.add("setup.generate", parent, 1, start, t1)
	m, _, err := gbdt.Train(train, gbdt.Options{Workers: workers, Trees: serveTrees, Layers: serveLayers})
	if err != nil {
		return err
	}
	b.model = m
	t2 := time.Now()
	r.tr.add("setup.train_model", parent, 1, t1, t2)

	b.srv, err = serve.New(m, serve.DefaultModel, serve.Options{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.url = "http://" + ln.Addr().String() + "/v1/predict"
	b.hsrv = &http.Server{Handler: b.wrap(b.srv.Handler())}
	b.served = make(chan struct{})
	go func(hsrv *http.Server, done chan struct{}) {
		defer close(done)
		hsrv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}(b.hsrv, b.served)
	r.tr.add("setup.listen", parent, 1, t2, time.Now())
	return nil
}

// wrap times the handler of requests sent during traced slices and
// records a handler span for sampled ones.
func (b *serveBench) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !b.tracing.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		b.handlerNs.Add(int64(end.Sub(start)))
		b.handlerN.Add(1)
		if id := req.Header.Get(spanHeader); id != "" {
			parent, _ := strconv.ParseInt(id, 10, 64)
			lane, _ := strconv.Atoi(req.Header.Get(spanHeader + "-Lane"))
			b.tr.add("serve.handler", parent, lane, start, end)
		}
	})
}

func (b *serveBench) close() {
	if b.hsrv != nil {
		b.hsrv.Close()
		<-b.served
		b.hsrv = nil
	}
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

// buildPool pre-encodes the request bodies from held-out rows: exactly
// batchShare percent are batchRows-row requests, in a seeded order.
func (b *serveBench) buildPool(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := b.valid.NumInstances()
	b.pool = make([]body, poolSize)
	for i := range b.pool {
		rows := 1
		if i < poolSize*batchShare/100 {
			rows = batchRows
		}
		var req serve.PredictRequest
		bd := body{rows: rows}
		for k := 0; k < rows; k++ {
			f, v := b.valid.X.Row(rng.Intn(n))
			bd.feats = append(bd.feats, f)
			bd.vals = append(bd.vals, v)
			req.Rows = append(req.Rows, serve.SparseRow{Indices: f, Values: v})
		}
		var err error
		if bd.payload, err = json.Marshal(req); err != nil {
			return err
		}
		b.pool[i] = bd
	}
	rng.Shuffle(len(b.pool), func(i, j int) { b.pool[i], b.pool[j] = b.pool[j], b.pool[i] })
	return nil
}

// verify sends every pooled body once and checks the served scores
// against offline Predictor.PredictRows bit for bit; the verified response
// becomes the body's expected bytes for the timed window.
func (b *serveBench) verify(r *runner, client *http.Client) error {
	pred, err := gbdt.NewPredictor(b.model, gbdt.PredictorOptions{})
	if err != nil {
		return err
	}
	for i := range b.pool {
		bd := &b.pool[i]
		got, err := post(client, b.url, bd.payload, nil)
		if err == nil {
			var resp serve.PredictResponse
			if err = json.Unmarshal(got, &resp); err == nil {
				err = sameScores(pred.PredictRows(bd.feats, bd.vals), resp.Scores, pred.NumClass())
			}
		}
		if !r.checks.record(err) {
			return fmt.Errorf("pooled body %d: %w", i, err)
		}
		bd.want = got
	}
	return nil
}

// post sends one predict request and returns the response body, failing
// on any status but 200.
func post(client *http.Client, url string, payload []byte, hdr http.Header) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(got))
	}
	return got, nil
}

// clientLog is one client's record of the window.
type clientLog struct {
	lat       []float64 // ms, every request
	n         [2]int    // completed requests in untraced [0] and traced [1] slices
	tracedLat time.Duration
}

func (b *serveBench) run(r *runner) error {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	if err := b.buildPool(r.seed); err != nil {
		return err
	}
	if err := b.verify(r, client); err != nil {
		return err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	logs := make([]clientLog, clients)
	cpu0 := cpuTime()
	begin := time.Now()
	deadline := begin.Add(r.seconds)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.drive(r, client, c, deadline, &logs[c])
		}(c)
	}
	var spent [2]time.Duration // time spent untraced [0] and traced [1]
	if r.traced() {
		// Alternate untraced and traced slices so both see the same drift.
		for t, k := begin, 0; t.Before(deadline); k = 1 - k {
			b.tracing.Store(k == 1)
			next := t.Add(sliceSeconds * time.Second)
			if next.After(deadline) {
				next = deadline
			}
			time.Sleep(time.Until(next))
			spent[k] += next.Sub(t)
			t = next
		}
		b.tracing.Store(false)
	}
	wg.Wait()
	window, cpu := time.Since(begin).Seconds(), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)

	var lat []float64
	var n [2]int
	var tracedLat time.Duration
	for _, l := range logs {
		lat = append(lat, l.lat...)
		n[0] += l.n[0]
		n[1] += l.n[1]
		tracedLat += l.tracedLat
	}
	if len(lat) == 0 {
		return errors.New("no request completed")
	}
	ops := len(lat)
	r.set("op_alloc_mib", float64(ms1.TotalAlloc-ms0.TotalAlloc)/mib/float64(ops), ops)
	r.noteTimes(lat, ops, window, float64(cpu)/1e6/float64(ops))
	logloss := gbdt.LogLoss(b.model, b.valid)
	r.checks.record(belowConstant(logloss, serveData.C))
	r.set("valid_logloss", logloss, b.valid.NumInstances())
	if !r.traced() {
		return nil
	}

	r.set("runtime.gc_per_op", float64(ms1.NumGC-ms0.NumGC)/float64(ops), ops)
	untracedRate := ratio(float64(n[0]), spent[0].Seconds())
	tracedRate := ratio(float64(n[1]), spent[1].Seconds())
	r.set("trace.overhead", ratio(untracedRate, tracedRate), n[1])
	if n[1] > 0 {
		handlerMean := ratio(float64(b.handlerNs.Load()), float64(b.handlerN.Load()))
		clientMean := float64(tracedLat) / float64(n[1])
		r.set("serve.outside_handler_share", 1-handlerMean/clientMean, n[1])
	}
	if err := b.scrape(r, client); err != nil {
		return err
	}
	b.probePredict(r)
	return nil
}

// drive is one closed-loop client: it walks the pool from its own offset,
// one request at a time, until the deadline.
func (b *serveBench) drive(r *runner, client *http.Client, c int, deadline time.Time, l *clientLog) {
	lane := c + 2 // lane 1 is the driving goroutine
	for i := c * poolSize / clients; time.Now().Before(deadline); i++ {
		bd := &b.pool[i%poolSize]
		traced := b.tracing.Load()
		var id int64
		var hdr http.Header
		if traced && (l.n[1]%sampleEvery) == 0 {
			id = b.tr.reserve()
			hdr = http.Header{spanHeader: {strconv.FormatInt(id, 10)}, spanHeader + "-Lane": {strconv.Itoa(lane)}}
		}
		start := time.Now()
		got, err := post(client, b.url, bd.payload, hdr)
		end := time.Now()
		if err == nil {
			err = sameBytes("response", bd.want, got)
		}
		if !r.checks.record(err) {
			continue
		}
		d := end.Sub(start)
		l.lat = append(l.lat, float64(d)/1e6)
		if traced {
			l.n[1]++
			l.tracedLat += d
		} else {
			l.n[0]++
		}
		if id != 0 {
			b.tr.addID(id, fmt.Sprintf("request.%drow", bd.rows), 0, lane, start, end)
		}
	}
}

// scrape reads the handler's own ledger from /metricz.
func (b *serveBench) scrape(r *runner, client *http.Client) error {
	url := b.url[:len(b.url)-len("/v1/predict")] + "/metricz"
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var mz serve.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mz); err != nil {
		return fmt.Errorf("metricz: %w", err)
	}
	for _, m := range mz.Models {
		if m.Model == serve.DefaultModel {
			r.set("serve.handler_p50_ms", m.LatencyMs.P50, int(m.LatencyMs.Count))
			r.set("serve.handler_p99_ms", m.LatencyMs.P99, int(m.LatencyMs.Count))
			r.set("serve.rejected", float64(m.Rejected), int(m.Requests))
			return nil
		}
	}
	return errors.New("metricz: default model missing")
}

// probePredict times Predictor.PredictRows alone on the pooled rows.
func (b *serveBench) probePredict(r *runner) {
	pred, err := gbdt.NewPredictor(b.model, gbdt.PredictorOptions{})
	if !r.checks.record(err) {
		return
	}
	var row, batch []float64
	start := time.Now()
	for pass := 0; pass < 20; pass++ {
		for i := range b.pool {
			bd := &b.pool[i]
			t0 := time.Now()
			pred.PredictRows(bd.feats, bd.vals)
			us := float64(time.Since(t0)) / 1e3
			if bd.rows == 1 {
				row = append(row, us)
			} else {
				batch = append(batch, us)
			}
		}
	}
	r.tr.add("predict.probe", 0, 1, start, time.Now())
	r.set("predict.row_us", median(row), len(row))
	r.set("predict.batch64_us", median(batch), len(batch))
}
