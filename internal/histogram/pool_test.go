package histogram

import "testing"

func TestPoolReuseReturnsZeroed(t *testing.T) {
	p := NewPool()
	l := UniformLayout(3, 4, 2)

	h := p.Get(l)
	for i := range h.Grad {
		h.Grad[i] = float64(i) + 1
		h.Hess[i] = -float64(i) - 1
	}
	p.Put(h)

	r := p.Get(l)
	if r != h {
		t.Fatalf("expected the released histogram back, got a fresh allocation")
	}
	for i := range r.Grad {
		if r.Grad[i] != 0 || r.Hess[i] != 0 {
			t.Fatalf("recycled histogram not zeroed at index %d: grad=%v hess=%v", i, r.Grad[i], r.Hess[i])
		}
	}
	if gets, reuses := p.Stats(); gets != 2 || reuses != 1 {
		t.Fatalf("stats = (%d gets, %d reuses), want (2, 1)", gets, reuses)
	}
}

func TestPoolLayoutMismatchAllocatesFresh(t *testing.T) {
	p := NewPool()
	small := UniformLayout(2, 4, 1)
	big := UniformLayout(8, 16, 3)

	h := p.Get(small)
	p.Put(h)

	// A different layout must not be served by the recycled buffer.
	fresh := p.Get(big)
	if fresh == h {
		t.Fatalf("layout mismatch served a recycled buffer")
	}
	if fresh.Layout != big || len(fresh.Grad) != big.FloatsPerSide() {
		t.Fatalf("fresh histogram has layout %+v, want %+v", fresh.Layout, big)
	}
	if gets, reuses := p.Stats(); gets != 2 || reuses != 0 {
		t.Fatalf("stats = (%d gets, %d reuses), want (2, 0)", gets, reuses)
	}

	// The small buffer is still there for its own layout.
	if again := p.Get(small); again != h {
		t.Fatalf("matching layout did not reuse the released buffer")
	}
}

func TestPoolPutRejectsViews(t *testing.T) {
	p := NewPool()
	l := UniformLayout(2, 4, 1)

	// A histogram wrapping borrowed slices of the wrong length must be
	// dropped, not recycled.
	view := &Hist{Layout: l, Grad: make([]float64, 1), Hess: make([]float64, 1)}
	p.Put(view)
	if h := p.Get(l); h == view {
		t.Fatalf("pool recycled a histogram with mismatched buffers")
	}

	p.Put(nil) // must not panic
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool()
	l := UniformLayout(4, 8, 1)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				h := p.Get(l)
				h.Add(1, 2, 0, 1, 1)
				p.Put(h)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if gets, _ := p.Stats(); gets != 800 {
		t.Fatalf("gets = %d, want 800", gets)
	}
}
