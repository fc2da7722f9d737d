package histogram

import "sync"

// Pool is a layout-keyed histogram arena. One training run allocates
// O(nodes x workers x trees) histograms, each 2 x bins x C
// float64s — recycling them across nodes, layers and trees removes the
// dominant steady-state allocation of the training loop. Buffers are
// recycled per layout, so one pool serves workers with different feature
// group sizes (vertical quadrants); a Get under a layout the pool has
// never recycled simply falls back to a fresh allocation.
//
// Get returns zeroed histograms: fresh allocations are zero by
// construction, recycled ones are cleared on Put, so a pooled histogram is
// indistinguishable from histogram.New's output.
//
// Pool is safe for concurrent use — workers of a concurrent cluster
// allocate and release node histograms in parallel.
type Pool struct {
	mu   sync.Mutex
	free map[Layout][]*Hist

	gets, reuses int64
}

// NewPool returns an empty arena.
func NewPool() *Pool {
	return &Pool{free: make(map[Layout][]*Hist)}
}

// Get returns a zeroed histogram with the given layout, recycling a
// released buffer when one with the exact layout is available and
// allocating fresh otherwise.
func (p *Pool) Get(l Layout) *Hist {
	p.mu.Lock()
	p.gets++
	if hs := p.free[l]; len(hs) > 0 {
		h := hs[len(hs)-1]
		p.free[l] = hs[:len(hs)-1]
		p.reuses++
		p.mu.Unlock()
		return h
	}
	p.mu.Unlock()
	return New(l)
}

// Put releases a histogram back to the arena for reuse. Nil histograms and
// histograms whose buffers do not match their layout (e.g. views wrapping
// borrowed slices) are dropped rather than recycled. The caller must not
// touch h afterwards.
func (p *Pool) Put(h *Hist) {
	if h == nil {
		return
	}
	n := h.FloatsPerSide()
	if len(h.Grad) != n || len(h.Hess) != n {
		return
	}
	h.Reset() // zero now so Get hands out ready-to-use buffers
	p.mu.Lock()
	p.free[h.Layout] = append(p.free[h.Layout], h)
	p.mu.Unlock()
}

// Stats reports the number of Get calls and how many of them were served
// by recycling (the remainder allocated fresh).
func (p *Pool) Stats() (gets, reuses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.reuses
}
