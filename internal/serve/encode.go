package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// responsePrefix pre-encodes the head every response of one handle
// starts with, {"model":…,"version":…,"num_class":…,"scores":, through
// encoding/json, so the model name is escaped exactly as the encoder of a
// whole PredictResponse escapes it.
func responsePrefix(name string, version, numClass int) []byte {
	// Marshal cannot fail on a response without scores.
	b, _ := json.Marshal(PredictResponse{Model: name, Version: version, NumClass: numClass})
	return bytes.TrimSuffix(b, []byte("null}"))
}

// appendPredictResponse appends, after the handle's prefix, the
// /v1/predict body for margins (row-major with stride k) and their
// probabilities probs, omitted when empty as omitempty omits them: the
// bytes json.NewEncoder(w).Encode writes for the equivalent
// PredictResponse, trailing newline included. Like encoding/json it fails
// on a non-finite value.
func appendPredictResponse(b, prefix []byte, margins, probs []float64, k int) ([]byte, error) {
	b = append(b, prefix...)
	b, err := appendMatrix(b, margins, k)
	if err == nil && len(probs) > 0 {
		b = append(b, `,"probabilities":`...)
		b, err = appendMatrix(b, probs, k)
	}
	return append(b, "}\n"...), err
}

// appendMatrix appends flat as a JSON array of rows of k numbers.
func appendMatrix(b []byte, flat []float64, k int) ([]byte, error) {
	b = append(b, '[')
	for i := 0; i+k <= len(flat); i += k {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range flat[i : i+k] {
			if j > 0 {
				b = append(b, ',')
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return b, fmt.Errorf("unsupported value %v in row %d", v, i/k)
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendFloat formats v as encoding/json formats a float64: like
// strconv's shortest 'f' form for 1e-6 <= |v| < 1e21, and 'e' form with
// the exponent's leading zero removed otherwise.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
