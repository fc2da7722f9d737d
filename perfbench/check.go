package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
)

// tally counts attempted and failed operations. An operation fails when
// the program returns an error or its output does not pass a check; every
// check of the benchmark reports through a tally. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     error // the first failure, for the report
}

// record counts one operation and returns whether it succeeded.
func (t *tally) record(err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
		return false
	}
	return true
}

func (t *tally) counts() (attempted, failed int, first error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, t.first
}

// sameBytes fails when got differs from want; what names the output.
func sameBytes(what string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	n := 0
	for n < len(want) && n < len(got) && want[n] == got[n] {
		n++
	}
	return fmt.Errorf("%s differs from the reference at byte %d (%d vs %d bytes)", what, n, len(got), len(want))
}

// sameScores fails unless got, one row of k scores per instance, equals
// the flat row-major want bit for bit.
func sameScores(want []float64, got [][]float64, k int) error {
	if len(got)*k != len(want) {
		return fmt.Errorf("served %d rows of scores, want %d", len(got), len(want)/k)
	}
	for i, row := range got {
		if len(row) != k {
			return fmt.Errorf("row %d holds %d scores, want %d", i, len(row), k)
		}
		for c, v := range row {
			if w := want[i*k+c]; math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Errorf("row %d class %d scored %v, offline prediction %v", i, c, v, w)
			}
		}
	}
	return nil
}

// belowConstant fails unless a held-out log-loss beats the constant
// predictor's ln(C).
func belowConstant(logloss float64, numClass int) error {
	limit := math.Log(float64(numClass))
	if !(logloss < limit) {
		return fmt.Errorf("held-out log-loss %.4f is not below the constant predictor's ln(%d) = %.4f", logloss, numClass, limit)
	}
	return nil
}
