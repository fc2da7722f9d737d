// Cross-request micro-batching: concurrent single-row predict requests
// coalesce into one blocked PredictRows call, trading a bounded sub-
// millisecond queue wait for the throughput of the batch kernel.
//
// The coalescer is leader-follower and runs no background goroutine. The
// first request to find the queue empty opens a batch and becomes its
// leader, arming the flush deadline; followers append rows. The batch is
// scored by whichever request closes it: the follower whose row fills it
// to MaxRows (flush cause "full"), the leader when the deadline timer
// fires first (cause "deadline"), or Close during shutdown (cause
// "drain"). Every enqueued request blocks on the batch's done channel and
// reads its own margin slice back — exactly one response per request, no
// drops, no double answers.
//
// A batcher is bound to one compiled predictor, so each model version gets
// a fresh batcher: rows enqueued before a hot-swap are scored by — and
// answered as — the version they resolved. Swap and Delete drain the
// outgoing version's queue immediately rather than waiting out its
// deadline.
//
// Queuing only pays when another request is likely to arrive within the
// deadline, and the predictor scores a single row in microseconds — far
// less than any deadline — so instantaneous occupancy is a useless
// signal: even at tens of thousands of requests per second the previous
// request has usually finished before the next arrives. The coalescer
// therefore keys the fast path off the arrival rate instead. When the
// queue is empty and the previous request arrived more than one deadline
// ago, no companion can be expected before the flush and waiting would be
// pure added latency: enqueue refuses (the "inline" fast path) and the
// handler scores directly. Under load, inter-arrival gaps shrink below
// the deadline and every request queues.
package serve

import (
	"sync"
	"time"

	"vero/gbdt"
)

// BatchConfig configures one model's micro-batching.
type BatchConfig struct {
	// Deadline is the longest a queued row waits before its batch is
	// flushed. Zero or negative disables batching.
	Deadline time.Duration
	// MaxRows flushes a batch as soon as this many rows coalesce (default
	// Options.BlockRows, clamped to MaxInFlight — admission caps how many
	// single-row requests can ever wait at once). Values <= 1 disable
	// batching.
	MaxRows int
}

// clock abstracts time for the batcher so tests drive deadlines
// deterministically.
type clock interface {
	Now() time.Time
	NewTimer(d time.Duration) batchTimer
}

type batchTimer interface {
	C() <-chan time.Time
	Stop() bool
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) NewTimer(d time.Duration) batchTimer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.t.C }
func (t realTimer) Stop() bool          { return t.t.Stop() }

// flush causes, indexed into modelMetrics.
const (
	flushFull = iota
	flushDeadline
	flushDrain
)

// pendingBatch is one open batch: rows from distinct requests awaiting a
// shared scoring call.
type pendingBatch struct {
	feats [][]uint32
	vals  [][]float32
	enq   []time.Time // per-row enqueue time, for the queue-wait histogram

	// taken flips (under the batcher mutex) when a flusher claims the
	// batch; full is then closed so a waiting leader stops its timer.
	taken bool
	full  chan struct{}
	// done is closed once out holds every row's margins.
	done chan struct{}
	out  []float64
}

// batcher coalesces single-row requests for one (model, version) handle.
type batcher struct {
	pred    *gbdt.Predictor
	cfg     BatchConfig
	clk     clock
	metrics *modelMetrics

	mu     sync.Mutex
	cur    *pendingBatch // open batch accepting rows, nil when none
	last   time.Time     // previous enqueue attempt, for the arrival-gap fast path
	closed bool
}

func newBatcher(pred *gbdt.Predictor, cfg BatchConfig, clk clock, m *modelMetrics) *batcher {
	return &batcher{pred: pred, cfg: cfg, clk: clk, metrics: m}
}

// enqueue submits one row and blocks until its batch is scored, returning
// the row's margins (length NumClass). ok is false when the batcher is
// closed or chose the inline fast path — the caller then scores the row
// itself.
func (b *batcher) enqueue(feat []uint32, val []float32) (margins []float64, ok bool) {
	now := b.clk.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, false
	}
	prev := b.last
	b.last = now
	leader := false
	if b.cur == nil {
		// Nobody queued. If arrivals are sparser than the deadline, no
		// companion will show up before the flush either; skip the wait.
		if prev.IsZero() || now.Sub(prev) > b.cfg.Deadline {
			b.mu.Unlock()
			b.metrics.batchInline.Add(1)
			return nil, false
		}
		b.cur = &pendingBatch{
			feats: make([][]uint32, 0, b.cfg.MaxRows),
			vals:  make([][]float32, 0, b.cfg.MaxRows),
			enq:   make([]time.Time, 0, b.cfg.MaxRows),
			full:  make(chan struct{}),
			done:  make(chan struct{}),
		}
		leader = true
	}
	bt := b.cur
	idx := len(bt.feats)
	bt.feats = append(bt.feats, feat)
	bt.vals = append(bt.vals, val)
	bt.enq = append(bt.enq, now)
	filled := len(bt.feats) >= b.cfg.MaxRows
	if filled {
		b.takeLocked(bt)
	}
	b.mu.Unlock()

	if filled {
		b.flush(bt, flushFull)
	} else if leader {
		timer := b.clk.NewTimer(b.cfg.Deadline)
		select {
		case <-bt.full:
			// A follower filled the batch (or Close drained it); the
			// taker flushes.
			timer.Stop()
		case <-timer.C():
			b.mu.Lock()
			took := !bt.taken
			if took {
				b.takeLocked(bt)
			}
			b.mu.Unlock()
			if took {
				b.flush(bt, flushDeadline)
			}
		}
	}

	<-bt.done
	k := b.pred.NumClass()
	return bt.out[idx*k : (idx+1)*k], true
}

// takeLocked claims bt for flushing. Callers hold b.mu.
func (b *batcher) takeLocked(bt *pendingBatch) {
	bt.taken = true
	if b.cur == bt {
		b.cur = nil
	}
	close(bt.full)
}

// flush scores a claimed batch and releases every waiting request.
func (b *batcher) flush(bt *pendingBatch, cause int) {
	now := b.clk.Now()
	for _, t0 := range bt.enq {
		b.metrics.queueWait.observe(now.Sub(t0))
	}
	b.metrics.batches.Add(1)
	b.metrics.batchedRows.Add(int64(len(bt.feats)))
	b.metrics.batchFlush[cause].Add(1)
	bt.out = b.pred.PredictRows(bt.feats, bt.vals)
	close(bt.done)
}

// Close drains the open batch (flush cause "drain") and rejects further
// enqueues, which fall back to inline scoring. Requests already waiting
// are scored and answered; none are dropped. Safe to call more than once.
func (b *batcher) Close() {
	b.mu.Lock()
	b.closed = true
	bt := b.cur
	if bt != nil {
		b.takeLocked(bt)
	}
	b.mu.Unlock()
	if bt != nil {
		b.flush(bt, flushDrain)
	}
}
