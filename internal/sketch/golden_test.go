package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"vero/internal/sparse"
)

// goldenCanonical pins the sketches Canonical builds on fixed seeded
// columns, one SHA-256 digest per (column, eps). The digests were taken
// from the forward-merge flush that flushReference preserves; any change
// to the sketch that moves a candidate split or a tuple shows up here.
var goldenCanonical = map[string]string{
	"signed-zero/eps=0.001": "459dbfa33ad9e4697173093c610633ee198c96e0529f7664020fcbc51e5a0fed",
	"duplicates/eps=0.001":  "7d4c5b1991fd9a71a9cf47b3fcfdcef974f1d8b09656918b7057ae335c90d46e",
	"sorted/eps=0.001":      "c4850234e8d0e1db99aa1d410abc5e56ea11b56fb54b715ebc2c3e43a4fb8b97",
	"reversed/eps=0.001":    "ab078149a706e11cf588cce3dfa34cb05b8362b10a29be30426e069dee641bdf",
	"normal/eps=0.001":      "01611baab0339cad7e6ffbe041ee5f4cf935c400bda8e5d6516d513585b9c692",
	"signed-zero/eps=0.01":  "951b88b3127455515f25a0f43787a3634b1570eb100f422c50e8cd7a3a7cebe8",
	"duplicates/eps=0.01":   "9a0fff9b99dd99c66a1a5e5c9ab94f07dab55b1ead6a9beb1f976db78e5b775f",
	"sorted/eps=0.01":       "c5cf839344684837e5ecabc10d78cd4c38dcd1d54f247c0a02bc1149af8d7f2f",
	"reversed/eps=0.01":     "0dcf59ba298c8c56897ad36b2f0776be899411979570b220edcb50bb1048fa8c",
	"normal/eps=0.01":       "b8e80688e7a3bd0dae974f9b3a0bed13aab91f995c820464ba64a42010ba38a9",
	"signed-zero/eps=0.2":   "14e9e99b36ea0a0b3b6a5a3ed7810e7fcaf50c65cd1b22b7be237fa3fb0df094",
	"duplicates/eps=0.2":    "552785868b10409a686980e72f43722f9190e9775d11ec95d56a2cc14577bf10",
	"sorted/eps=0.2":        "55a069fcbd8b5f0e8b886eba8657d36ac92ccaa24e355f0fc566f0e2b531e2e2",
	"reversed/eps=0.2":      "a94a4292183e3d56b740bcfd8f5e0e38e4d3e3e9a62738b157da426ccc4fe492",
	"normal/eps=0.2":        "18d3dd961def044bd6a8c397192dc5c6fd4734abf124766a75739628de3ff26b",
}

// goldenColumns are the value streams of the golden matrix, one column
// each. Every column skips some rows so the matrix stays sparse.
var goldenColumns = []struct {
	name string
	gen  func(rng *rand.Rand, i, n int) float32
}{
	{"signed-zero", func(rng *rand.Rand, i, n int) float32 {
		return []float32{float32(math.Copysign(0, -1)), 0, 0, -1, 1, 0.5}[rng.Intn(6)]
	}},
	{"duplicates", func(rng *rand.Rand, i, n int) float32 { return float32(rng.Intn(4)) }},
	{"sorted", func(rng *rand.Rand, i, n int) float32 { return float32(i) }},
	{"reversed", func(rng *rand.Rand, i, n int) float32 { return float32(n - i) }},
	{"normal", func(rng *rand.Rand, i, n int) float32 { return float32(rng.NormFloat64()) }},
}

// goldenMatrix builds the n-row golden matrix: each column is present in
// a row with probability 0.6 and takes the value its generator draws.
func goldenMatrix(t testing.TB, n int) *sparse.CSR {
	rng := rand.New(rand.NewSource(20010521))
	rowPtr := []int64{0}
	var feat []uint32
	var val []float32
	for i := 0; i < n; i++ {
		for f, c := range goldenColumns {
			if rng.Float64() < 0.6 {
				feat = append(feat, uint32(f))
				val = append(val, c.gen(rng, i, n))
			}
		}
		rowPtr = append(rowPtr, int64(len(feat)))
	}
	x, err := sparse.NewCSR(n, len(goldenColumns), rowPtr, feat, val)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// sketchDigest hashes a sketch's Count, its CandidateSplits(q) and its raw
// tuples (value bits, g, delta), in that order.
func sketchDigest(s *GK, q int) string {
	h := sha256.New()
	var w [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(w[:], u)
		h.Write(w[:])
	}
	put(uint64(s.Count()))
	for _, c := range s.CandidateSplits(q) {
		put(uint64(math.Float32bits(c)))
	}
	for _, tp := range s.tuples {
		put(math.Float64bits(tp.v))
		put(uint64(tp.g))
		put(uint64(tp.delta))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCanonicalGolden(t *testing.T) {
	x := goldenMatrix(t, 20000)
	var got []string
	for _, eps := range []float64{0.001, 0.01, 0.2} {
		sks := Canonical(x, eps)
		for f, c := range goldenColumns {
			key := fmt.Sprintf("%s/eps=%g", c.name, eps)
			d := sketchDigest(sks[f], 64)
			got = append(got, fmt.Sprintf("\t%q: %q,", key, d))
			if want := goldenCanonical[key]; d != want {
				t.Errorf("%s: digest %s, want %s", key, d, want)
			}
		}
	}
	if t.Failed() {
		t.Logf("digests of this build:\n%s", strings.Join(got, "\n"))
	}
}

// flushReference is the forward-merge flush: it copies the tuple list into
// a fresh slice, interleaving the sorted buffer. It is the reference the
// in-place flush is checked against.
func (s *GK) flushReference() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	out := make([]tuple, 0, len(s.tuples)+len(s.buf))
	ti := 0
	for _, v := range s.buf {
		for ti < len(s.tuples) && s.tuples[ti].v < v {
			out = append(out, s.tuples[ti])
			ti++
		}
		s.n++
		var delta int64
		if len(out) == 0 || ti >= len(s.tuples) {
			delta = 0
		} else {
			delta = int64(2 * s.eps * float64(s.n))
		}
		out = append(out, tuple{v: v, g: 1, delta: delta})
	}
	out = append(out, s.tuples[ti:]...)
	s.tuples = out
	s.buf = s.buf[:0]
	s.compress()
}

// addReference is Add with flushReference in place of flush.
func (s *GK) addReference(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.buf = append(s.buf, v)
	if len(s.buf) >= s.bufCap {
		s.flushReference()
	}
}

// TestFlushMatchesReference feeds the same random streams to flush and to
// flushReference and requires bit-identical tuples after every flush.
func TestFlushMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	gens := []func(i int) float64{
		func(int) float64 { return []float64{negZero, 0, 1, -1}[rng.Intn(4)] },
		func(int) float64 { return float64(rng.Intn(3)) },
		func(i int) float64 { return float64(i) },
		func(i int) float64 { return float64(-i) },
		func(i int) float64 { return float64(i / 37) },
		func(int) float64 { return rng.NormFloat64() },
		func(int) float64 { return math.Round(rng.NormFloat64()*4) / 4 },
	}
	epss := []float64{0.001, 0.005, 0.01, 0.03, 0.1, 0.2}
	for stream := 0; stream < 3000; stream++ {
		eps := epss[rng.Intn(len(epss))]
		gen := gens[rng.Intn(len(gens))]
		n := rng.Intn(3000)
		got, want := New(eps), New(eps)
		for i := 0; i < n; i++ {
			v := gen(i)
			got.Add(v)
			want.addReference(v)
			if len(want.buf) == 0 {
				requireSameTuples(t, stream, i, got, want)
			}
		}
		got.flush()
		want.flushReference()
		requireSameTuples(t, stream, n, got, want)
	}
}

func requireSameTuples(t *testing.T, stream, i int, got, want *GK) {
	t.Helper()
	same := got.n == want.n && len(got.buf) == len(want.buf) &&
		slices.EqualFunc(got.tuples, want.tuples, func(a, b tuple) bool {
			return math.Float64bits(a.v) == math.Float64bits(b.v) && a.g == b.g && a.delta == b.delta
		})
	if !same {
		t.Fatalf("stream %d after %d inserts (eps %v): tuples diverge from the reference flush\ngot  n=%d %v\nwant n=%d %v",
			stream, i, got.eps, got.n, got.tuples, want.n, want.tuples)
	}
}
