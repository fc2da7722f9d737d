// Per-model request accounting: lock-free counters plus a fixed-bucket
// latency histogram cheap enough to update on every request, from which
// /metricz derives p50/p99 at scrape time.
package serve

import (
	"sync/atomic"
	"time"
)

// latBuckets is the number of geometric latency buckets. Bucket i counts
// requests with latency <= latBucketFloor<<i; the last bucket absorbs
// everything slower.
const (
	latBuckets     = 26
	latBucketFloor = 10 * time.Microsecond // bucket 0 upper bound
)

// latHist is a fixed-bucket latency histogram, cheap enough to update on
// every request without allocating.
type latHist [latBuckets]atomic.Int64

func (h *latHist) observe(d time.Duration) {
	b, bound := 0, latBucketFloor
	for b < latBuckets-1 && d > bound {
		b++
		bound <<= 1
	}
	h[b].Add(1)
}

// summary reads the histogram. Concurrent updates may land between the
// bucket reads.
func (h *latHist) summary() Latency {
	var counts [latBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h[i].Load()
		total += counts[i]
	}
	return Latency{
		Count: total,
		P50:   quantileMs(counts[:], total, 0.50),
		P99:   quantileMs(counts[:], total, 0.99),
	}
}

// modelMetrics is the accounting shared by every version of a served
// model name. All fields are atomics; updates never block prediction.
type modelMetrics struct {
	requests atomic.Int64 // completed predict requests (any status)
	errors   atomic.Int64 // predict requests answered with an error status
	rejected atomic.Int64 // requests that gave up waiting for admission
	rows     atomic.Int64 // instances scored
	inFlight atomic.Int64 // predict requests currently admitted
	latency  latHist      // successful requests, admission wait to response written

	// Stages of successful requests: reading and decoding the body,
	// scoring (including any coalescing-queue wait), and encoding and
	// writing the response. With the admission wait they add up to
	// latency.
	decode, score, encode latHist

	// Micro-batching accounting (see batcher.go). batchedRows/batches is
	// the achieved batching factor.
	batches     atomic.Int64    // coalesced batches flushed
	batchedRows atomic.Int64    // rows scored through batches
	batchInline atomic.Int64    // rows that took the inline fast path
	batchFlush  [3]atomic.Int64 // flushes by cause: full, deadline, drain
	queueWait   latHist         // per-row time spent queued
}

// observe records one completed request.
func (m *modelMetrics) observe(d time.Duration, rows int, failed bool) {
	m.requests.Add(1)
	m.rows.Add(int64(rows))
	if failed {
		m.errors.Add(1)
		return
	}
	m.latency.observe(d)
}

// observeStages records the stage times of one successful request.
func (m *modelMetrics) observeStages(decode, score, encode time.Duration) {
	m.decode.observe(decode)
	m.score.observe(score)
	m.encode.observe(encode)
}

// MetricsSnapshot is one model's /metricz entry.
type MetricsSnapshot struct {
	Model     string  `json:"model"`
	Version   int     `json:"version"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Rejected  int64   `json:"rejected"`
	Rows      int64   `json:"rows"`
	InFlight  int64   `json:"in_flight"`
	LatencyMs Latency `json:"latency_ms"`
	// The stages of the requests LatencyMs counts.
	DecodeMs Latency `json:"decode_ms"`
	ScoreMs  Latency `json:"score_ms"`
	EncodeMs Latency `json:"encode_ms"`
	// Batching is present when the model serves with micro-batching.
	Batching *BatchingSnapshot `json:"batching,omitempty"`
}

// BatchingSnapshot is a model's micro-batching accounting in /metricz.
type BatchingSnapshot struct {
	Batches     int64 `json:"batches"`
	BatchedRows int64 `json:"batched_rows"`
	// Factor is the achieved batching factor, rows per flushed batch.
	Factor        float64 `json:"factor"`
	FlushFull     int64   `json:"flush_full"`
	FlushDeadline int64   `json:"flush_deadline"`
	FlushDrain    int64   `json:"flush_drain"`
	// Inline counts rows that skipped the queue (no concurrent request to
	// coalesce with) and were scored directly.
	Inline int64 `json:"inline"`
	// QueueWaitMs summarizes per-row time spent in the coalescing queue.
	QueueWaitMs Latency `json:"queue_wait_ms"`
}

// Latency summarizes the fixed-bucket histogram. P50 and P99 are upper
// bounds of the bucket containing the quantile (0 when no request has
// completed successfully).
type Latency struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// snapshot reads the counters. Concurrent updates may land between reads;
// each individual figure is exact at its read point. batching selects
// whether the micro-batching section is included.
func (m *modelMetrics) snapshot(name string, version int, batching bool) MetricsSnapshot {
	snap := MetricsSnapshot{
		Model:     name,
		Version:   version,
		Requests:  m.requests.Load(),
		Errors:    m.errors.Load(),
		Rejected:  m.rejected.Load(),
		Rows:      m.rows.Load(),
		InFlight:  m.inFlight.Load(),
		LatencyMs: m.latency.summary(),
		DecodeMs:  m.decode.summary(),
		ScoreMs:   m.score.summary(),
		EncodeMs:  m.encode.summary(),
	}
	if batching {
		bs := &BatchingSnapshot{
			Batches:       m.batches.Load(),
			BatchedRows:   m.batchedRows.Load(),
			FlushFull:     m.batchFlush[flushFull].Load(),
			FlushDeadline: m.batchFlush[flushDeadline].Load(),
			FlushDrain:    m.batchFlush[flushDrain].Load(),
			Inline:        m.batchInline.Load(),
			QueueWaitMs:   m.queueWait.summary(),
		}
		if bs.Batches > 0 {
			bs.Factor = float64(bs.BatchedRows) / float64(bs.Batches)
		}
		snap.Batching = bs
	}
	return snap
}

// quantileMs returns the upper bound, in milliseconds, of the bucket
// containing quantile q.
func quantileMs(counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total-1)) + 1
	var cum int64
	bound := latBucketFloor
	for i, c := range counts {
		cum += c
		if cum >= rank || i == len(counts)-1 {
			return float64(bound) / float64(time.Millisecond)
		}
		bound <<= 1
	}
	return float64(bound) / float64(time.Millisecond)
}
