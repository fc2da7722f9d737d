package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"
)

// referenceDecode is the reflection-based decoder the hand-written one
// replaced, kept as its oracle: json.Decoder with DisallowUnknownFields
// into PredictRequest, then the row checks, sorting and sparsification.
func referenceDecode(body []byte, maxRows int) (feats [][]uint32, vals [][]float32, proba bool, status int, err error) {
	var req PredictRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, false, http.StatusBadRequest, err
	}
	n := len(req.Rows) + len(req.Dense)
	if n == 0 {
		return nil, nil, false, http.StatusBadRequest, fmt.Errorf("empty request")
	}
	if n > maxRows {
		return nil, nil, false, http.StatusRequestEntityTooLarge, fmt.Errorf("%d rows", n)
	}
	for i, row := range req.Rows {
		if len(row.Indices) != len(row.Values) {
			return nil, nil, false, http.StatusBadRequest, fmt.Errorf("row %d: mismatched", i)
		}
		order := make([]int, len(row.Indices))
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool { return row.Indices[order[a]] < row.Indices[order[b]] })
		feat := make([]uint32, len(order))
		val := make([]float32, len(order))
		for j, o := range order {
			feat[j], val[j] = row.Indices[o], row.Values[o]
			if j > 0 && feat[j] == feat[j-1] {
				return nil, nil, false, http.StatusBadRequest, fmt.Errorf("row %d: duplicate", i)
			}
		}
		feats, vals = append(feats, feat), append(vals, val)
	}
	for _, dense := range req.Dense {
		var feat []uint32
		var val []float32
		for j, v := range dense {
			if v != 0 {
				feat, val = append(feat, uint32(j)), append(val, v)
			}
		}
		feats, vals = append(feats, feat), append(vals, val)
	}
	return feats, vals, req.Proba, http.StatusOK, nil
}

// FuzzDecodePredictRequest holds the /v1/predict body decoder to the
// reflection-based reference: the same accept or reject, the same status,
// and on acceptance the same rows bit for bit and the same proba. Each
// input is decoded twice through one scratch, with and without a declared
// length, so leftovers of an earlier request in the pooled arenas show.
func FuzzDecodePredictRequest(f *testing.F) {
	for _, seed := range []string{
		`{"rows":[{"indices":[0,7],"values":[1.5,-2]}],"proba":true}`,
		`{"dense":[[1.5,0,0,-2]]}`,
		`{"rows":[{"indices":[7,0],"values":[1,2]}],"dense":[[0,1]]}`,
		`{"rows":[{"indices":[1,1],"values":[1,2]}]}`,
		`{"rows":[{"indices":[1,2],"values":[1]}]}`,
		`{nope`,
		`{"rows":[],"dense":[]}`,
		``,
		"\t\n {\r}",
		// Case-insensitive and escaped keys, including the non-ASCII folds
		// ſ (to s) and K (Kelvin, to k).
		`{"ROWS":[{"Indices":[1],"VALUES":[2]}],"Proba":true}`,
		`{"rows":[{"indices":[1],"values":[2]}]}`,
		`{"rowſ":[{"indiceſ":[3],"valueſ":[4]}],"denſe":[[1]]}`,
		`{"rowſ":[{"indices":[3],"values":[4]}]}`,
		`{"dense":[[1]],"Key":1}`,
		`{"dense":[[1]],"😀":1}`,
		`{"dense":[[1]],"\ud800":1}`,
		`{"dense":[[1]],"\ud800A":1}`,
		"{\"dense\":[[1]],\"\xff\":1}",
		`{"dense":[[1]],"\q":1}`,
		// null at every position.
		`null`,
		`{"rows":null}`,
		`{"rows":[null]}`,
		`{"rows":[{"indices":null,"values":null}]}`,
		`{"rows":[{"indices":[null],"values":[null]}]}`,
		`{"dense":null,"rows":[{}]}`,
		`{"dense":[null]}`,
		`{"dense":[[null,1]]}`,
		`{"proba":null,"dense":[[1]]}`,
		// Trailing bytes after the top-level value.
		`{"dense":[[1]]} trailing`,
		`{"dense":[[1]]}{`,
		`{"dense":[[1]]}]`,
		`{"dense":[[1]]`,
		// Number boundaries.
		`{"rows":[{"indices":[4294967295],"values":[3.4028235e38]}]}`,
		`{"rows":[{"indices":[4294967296],"values":[1]}]}`,
		`{"rows":[{"indices":[1],"values":[3.5e38]}]}`,
		`{"rows":[{"indices":[1],"values":[-3.4028235e38]}]}`,
		`{"rows":[{"indices":[1],"values":[1e-46]}]}`,
		`{"rows":[{"indices":[-0],"values":[1]}]}`,
		`{"rows":[{"indices":[0],"values":[-0]}]}`,
		`{"rows":[{"indices":[01],"values":[1]}]}`,
		`{"rows":[{"indices":[1],"values":[1.]}]}`,
		`{"rows":[{"indices":[1],"values":[.5]}]}`,
		`{"rows":[{"indices":[1.0],"values":[1]}]}`,
		`{"rows":[{"indices":[1e2],"values":[1E+2]}]}`,
		`{"dense":[[-0,0.0,1e-7,-1.5E-3]]}`,
		// Repeated keys decode into what the earlier key left.
		`{"rows":[{"indices":[1,2,3],"values":[1,2,3]}],"rows":[{"indices":[9]}]}`,
		`{"rows":[{"indices":[1],"values":[2]}],"rows":[null]}`,
		`{"rows":[{"indices":[1],"values":[2]},{"indices":[3],"values":[4]}],"rows":[{}],"rows":[null,null]}`,
		`{"dense":[[1,2,3]],"dense":[[4]],"dense":[[null,null,null,null]]}`,
		`{"dense":[[1,2]],"dense":[null]}`,
		`{"rows":[{"indices":[1,2],"indices":[3],"values":[1]}]}`,
		`{"rows":[{"indices":[1,2,3,4,5],"values":[1,2,3,4,5]}],"rows":[],"rows":[null]}`,
		`{"proba":true,"proba":null,"dense":[[1]]}`,
		`{"proba":true,"proba":false,"dense":[[1]]}`,
		// Unknown keys and mistyped values.
		`{"unknown":1}`,
		`{"rows":[{"indices":[],"values":[],"extra":1}]}`,
		`{"rows":{}}`,
		`{"rows":[[]]}`,
		`{"dense":[{}]}`,
		`{"proba":1,"dense":[[1]]}`,
		`{"dense":[["1"]]}`,
		`[{"dense":[[1]]}]`,
		// Past the batch limit, and shortened back under it.
		`{"dense":[` + strings.Repeat(`[1],`, 64) + `[1]]}`,
		`{"dense":[` + strings.Repeat(`[1],`, 64) + `[1]],"dense":[[2]]}`,
		`{"rows":[` + strings.Repeat(`{"indices":[1],"values":[1]},`, 70) + `{}],"rows":[null,null]}`,
		`{"dense":[` + strings.Repeat(`[1],`, 64) + `[1]],"dense":[nope]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRows = 64
		wantF, wantV, wantProba, wantStatus, wantErr := referenceDecode(data, maxRows)
		sc := getScratch()
		defer putScratch(sc)
		for _, size := range []int64{-1, int64(len(data))} {
			status, err := sc.decode(bytes.NewReader(data), size, maxRows)
			if (err != nil) != (wantErr != nil) || status != wantStatus {
				t.Fatalf("size %d: decoded to status %d (%v); reference %d (%v)", size, status, err, wantStatus, wantErr)
			}
			if err != nil {
				continue
			}
			if sc.proba != wantProba {
				t.Fatalf("proba %v, reference %v", sc.proba, wantProba)
			}
			if len(sc.feats) != len(wantF) || len(sc.vals) != len(wantV) {
				t.Fatalf("%d/%d rows, reference %d", len(sc.feats), len(sc.vals), len(wantF))
			}
			for i := range wantF {
				if len(sc.feats[i]) != len(wantF[i]) || len(sc.vals[i]) != len(wantV[i]) {
					t.Fatalf("row %d: %v %v, reference %v %v", i, sc.feats[i], sc.vals[i], wantF[i], wantV[i])
				}
				for j := range wantF[i] {
					if sc.feats[i][j] != wantF[i][j] || math.Float32bits(sc.vals[i][j]) != math.Float32bits(wantV[i][j]) {
						t.Fatalf("row %d: %v %v, reference %v %v", i, sc.feats[i], sc.vals[i], wantF[i], wantV[i])
					}
				}
			}
			putScratch(sc)
			sc = getScratch()
		}
	})
}

// rowsOf splits a flat stride-k vector into rows, the shape
// PredictResponse carries.
func rowsOf(flat []float64, k int) [][]float64 {
	rows := make([][]float64, len(flat)/k)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k]
	}
	return rows
}

// FuzzEncodePredictResponse holds the hand-written response encoder to
// json.Encoder: byte-equal output for any finite margins, with and
// without probabilities, for one or three classes and any model name.
func FuzzEncodePredictResponse(f *testing.F) {
	bits := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("default", 1, false, false, bits(0.83))
	f.Add(`<a&b>"\`, 7, true, true, bits(1e-7, -1e21, 123456789, 0.1, math.SmallestNonzeroFloat64, -0.0))
	f.Add("m \xff", 2, true, false, bits(1e20, 1e-6, 9.999999e-7, math.MaxFloat64))
	f.Fuzz(func(t *testing.T, name string, version int, proba, multiclass bool, raw []byte) {
		k := 1
		if multiclass {
			k = 3
		}
		var margins, probs []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			margins = append(margins, v)
		}
		margins = margins[:len(margins)/k*k]
		resp := PredictResponse{Model: name, Version: version, NumClass: k, Scores: rowsOf(margins, k)}
		if proba {
			for _, m := range margins {
				probs = append(probs, 1/(1+math.Exp(-m)))
			}
			resp.Probabilities = rowsOf(probs, k)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, err := appendPredictResponse(nil, responsePrefix(name, version, k), margins, probs, k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoded\n%s\nreference\n%s", got, want.Bytes())
		}
	})
}
