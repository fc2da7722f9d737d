package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"vero/internal/datasets"
	"vero/internal/sparse"
)

// TestCacheRoundTrip writes a cache and checks the reconstructed dataset
// re-bins to exactly the stored bins: the invariant the bit-identical
// training guarantee reduces to.
func TestCacheRoundTrip(t *testing.T) {
	ref, text := sampleLibSVM(t, 400, 60, 3, 21)
	ds, err := Ingest(strings.NewReader(text), Options{NumClass: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCache(bytes.NewReader(buf.Bytes()), "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumInstances() != ref.NumInstances() || got.NumFeatures() != ref.NumFeatures() {
		t.Fatalf("shape %dx%d, want %dx%d", got.NumInstances(), got.NumFeatures(), ref.NumInstances(), ref.NumFeatures())
	}
	if !reflect.DeepEqual(got.Labels, ref.Labels) {
		t.Fatal("labels differ")
	}
	if got.NumClass != 3 || got.Task != datasets.TaskMulti {
		t.Fatalf("numClass %d task %s", got.NumClass, got.Task)
	}
	pb := got.Prebin
	if pb == nil || !pb.Quantized || !pb.Matches(0.01, 20) {
		t.Fatalf("prebin = %+v", pb)
	}
	if !reflect.DeepEqual(pb.Splits, ds.Prebin.Splits) || !reflect.DeepEqual(pb.FeatCount, ds.Prebin.FeatCount) {
		t.Fatal("cached splits differ from ingested splits")
	}
	// Same sparsity pattern...
	if !reflect.DeepEqual(got.X.RowPtr, ref.X.RowPtr) || !reflect.DeepEqual(got.X.Feat, ref.X.Feat) {
		t.Fatal("sparsity pattern differs")
	}
	// ...and bin-identical values: binning the reconstructed matrix equals
	// binning the source matrix.
	binner := &sparse.Binner{Splits: pb.Splits}
	wantBins, err := binner.BinCSR(ref.X)
	if err != nil {
		t.Fatal(err)
	}
	gotBins, err := binner.BinCSR(got.X)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBins.Bin, wantBins.Bin) {
		t.Fatal("reconstructed values bin differently than source values")
	}
}

func TestCacheVersionMismatchRejected(t *testing.T) {
	_, text := sampleLibSVM(t, 50, 10, 2, 1)
	ds, err := Ingest(strings.NewReader(text), Options{NumClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	binary.LittleEndian.PutUint32(img[4:], vbinVersion+1)
	_, err = ReadCache(bytes.NewReader(img), "future")
	var mismatch *CacheMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("err = %v, want CacheMismatchError", err)
	}
	if !strings.Contains(err.Error(), "cache version 2, want 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestCacheCorruptionRejected(t *testing.T) {
	_, text := sampleLibSVM(t, 50, 10, 2, 2)
	ds, err := Ingest(strings.NewReader(text), Options{NumClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	flipped := append([]byte(nil), img...)
	flipped[vbinHeaderSize+8] ^= 0xff
	if _, err := ReadCache(bytes.NewReader(flipped), "flip"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped byte: err = %v", err)
	}
	if _, err := ReadCache(bytes.NewReader(img[:len(img)/2]), "trunc"); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := ReadCache(bytes.NewReader([]byte("not a cache at all")), "junk"); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("junk: err = %v", err)
	}
}

func TestCachedWarmAndCold(t *testing.T) {
	dir := t.TempDir()
	_, text := sampleLibSVM(t, 200, 30, 2, 9)
	src := filepath.Join(dir, "train.libsvm")
	if err := os.WriteFile(src, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	opts := Options{NumClass: 2}

	cold, status, err := Cached(cacheDir, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheCold {
		t.Fatalf("first load: status %s, want cold", status)
	}
	warm, status, err := Cached(cacheDir, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheWarm {
		t.Fatalf("second load: status %s, want warm", status)
	}
	if !warm.Prebin.Quantized || cold.Prebin.Quantized {
		t.Fatal("quantized flags wrong way around")
	}
	if !reflect.DeepEqual(warm.Labels, cold.Labels) {
		t.Fatal("warm labels differ")
	}

	// Different parameters key a different cache file -> cold again.
	_, status, err = Cached(cacheDir, src, Options{NumClass: 2, Q: 16})
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheCold {
		t.Fatalf("changed q: status %s, want cold", status)
	}

	// Touching the source invalidates the cache.
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(src, future, future); err != nil {
		t.Fatal(err)
	}
	_, status, err = Cached(cacheDir, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheCold {
		t.Fatalf("stale cache: status %s, want cold", status)
	}

	// A corrupted cache file is a miss, not an error.
	path, err := CachePath(cacheDir, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, future.Add(time.Hour), future.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	_, status, err = Cached(cacheDir, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if status != CacheCold {
		t.Fatalf("corrupt cache: status %s, want cold", status)
	}
}

func TestWriteCacheRequiresPrebin(t *testing.T) {
	ds, _ := sampleLibSVM(t, 10, 5, 2, 4)
	if err := WriteCache(&bytes.Buffer{}, ds, nil); err == nil {
		t.Fatal("nil prebin accepted")
	}
}

// TestCacheNaNValues checks the NaN path end to end: NaN values are
// stored (bin 0), sketch counts exclude them, and reconstruction re-bins
// identically.
func TestCacheNaNValues(t *testing.T) {
	text := "1 0:nan 1:2\n0 0:1 1:3\n1 0:nan 1:4\n"
	ds, err := Ingest(strings.NewReader(text), Options{NumClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Prebin.FeatCount[0] != 1 || ds.Prebin.FeatCount[1] != 3 {
		t.Fatalf("featCount = %v, want [1 3]", ds.Prebin.FeatCount)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCache(bytes.NewReader(buf.Bytes()), "nan")
	if err != nil {
		t.Fatal(err)
	}
	binner := &sparse.Binner{Splits: ds.Prebin.Splits}
	want, err := binner.BinCSR(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	gotBins, err := binner.BinCSR(got.X)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBins.Bin, want.Bin) {
		t.Fatal("NaN rows bin differently after reconstruction")
	}
}

// TestCacheImplausibleShapeRejected covers the header-outside-checksum
// hole: absurd dimensions must be rejected before any allocation, not
// panic in makeslice.
func TestCacheImplausibleShapeRejected(t *testing.T) {
	_, text := sampleLibSVM(t, 20, 5, 2, 6)
	ds, err := Ingest(strings.NewReader(text), Options{NumClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{8, 16, 24} { // rows, cols, nnz
		img := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(img[off:], 1<<50)
		if _, err := ReadCache(bytes.NewReader(img), "huge"); err == nil || !strings.Contains(err.Error(), "implausible shape") {
			t.Fatalf("offset %d: err = %v, want implausible-shape rejection", off, err)
		}
	}
}

// TestReadCacheFileAllocs bounds what one ReadCacheFile allocates: the
// payload buffer (at most the file size), the decoded arrays (sized from
// the header's dimensions) and 64 KiB of slack. Reading the payload with
// a growing buffer instead of one exact-size read allocates several times
// the file size and fails the bound.
func TestReadCacheFileAllocs(t *testing.T) {
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: 20000, D: 50, C: 2, InformativeRatio: 0.4, Density: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "allocs.vbin")
	if err := WriteCacheFile(path, ds, Prebinned(ds, DefaultSketchEps, 32)); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseVbinHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, nnz := int64(h.rows), int64(h.cols), h.nnz
	decoded := cols*(8+24+8) + 8*(cols+1) + 4*int64(h.q)*cols + // counts, split slices, featCount, colPtr
		nnz*(4+4) + // feat, val
		rows*4 + 8*(rows+1) // labels, rowPtr
	bound := st.Size() + decoded + 64<<10

	if _, err := ReadCacheFile(path); err != nil { // warm up lazily initialized state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadCacheFile(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > bound {
		t.Fatalf("ReadCacheFile allocated %d bytes for a %d-byte file, want <= %d (file + %d decoded + 64 KiB)",
			got, st.Size(), bound, decoded)
	}
}
