// The /v1/predict body decoder: a hand-written parser for the fixed
// request schema that reads the body once into a pooled buffer and writes
// the rows straight into pooled flat arenas, so a request allocates
// nothing once the pool is warm.
//
// It accepts exactly what json.Decoder with DisallowUnknownFields accepts
// when decoding into PredictRequest, and decodes it to the same rows
// (FuzzDecodePredictRequest holds it to that reference):
//
//   - keys match a field when bytes.EqualFold holds after unescaping;
//   - bytes after the top-level value are never read;
//   - indices follow strconv.ParseUint into uint32 and values
//     strconv.ParseFloat(s, 32), both on the JSON number grammar;
//   - a repeated key decodes into what the earlier one left, as
//     encoding/json does: an array overwrites elements in place from index
//     0, may extend into the slice's spare capacity (exposing elements a
//     longer earlier array left there), and truncates; null sets a slice to
//     nil and leaves a struct, bool or number unchanged.
//
// Every slice of the schema is therefore emulated: its length, and every
// element written since it was last reset to nil or empty, whether inside
// the current length or not. An element never written reads as zero. That
// is all the reference's capacity can expose: an element it has written
// lies below its capacity, and growing copies the elements and zeroes the
// rest, so the emulation never needs the capacity itself.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

const (
	// maxPooledBytes caps each buffer a scratch keeps across requests; a
	// larger one, grown by an unusually large request, is left to the GC.
	maxPooledBytes = 1 << 20
	// maxBodyPresize caps how much of a declared Content-Length is
	// allocated before the bytes arrive; a larger body grows as it is read.
	maxBodyPresize = 4 << 20
)

// scratchPool holds the per-request working memory of the predict path.
var scratchPool = sync.Pool{New: func() any { return new(predictScratch) }}

// predictScratch is one request's working memory: the body, the arenas
// its rows decode into, and the encoded response. The handler returns it
// to scratchPool only after the response is written, because the rows it
// hands the batcher are views into its arenas.
type predictScratch struct {
	body []byte
	pos  int // parse cursor in body

	// idx and val are the arenas every row's elements live in.
	idx []uint32
	val []float32

	// nRows and nDense are the lengths of the request's "rows" and
	// "dense" slices; rows and dense hold their written elements, up to
	// the first maxRows (later ones are parsed, not stored).
	nRows, nDense int
	rows          []rowSlot
	dense         []span
	proba         bool
	maxRows       int

	// feats and vals are the decoded rows, sparse rows first and then the
	// sparsified dense rows, each sorted by feature id: views into idx and
	// val.
	feats [][]uint32
	vals  [][]float32

	margins []float64 // the scores of an unbatched request
	out     []byte    // the encoded response
}

// span is an emulated Go slice of length len whose written elements live
// in an arena at [off, off+written).
type span struct {
	off, len, written int
}

// rowSlot is one emulated SparseRow.
type rowSlot struct {
	idx, val span
}

func getScratch() *predictScratch { return scratchPool.Get().(*predictScratch) }

func putScratch(sc *predictScratch) {
	clear(sc.feats) // drop the views, which may pin an arena too large to keep
	clear(sc.vals)
	sc.body = reuse(sc.body)
	sc.idx = reuse(sc.idx)
	sc.val = reuse(sc.val)
	sc.rows = reuse(sc.rows)
	sc.dense = reuse(sc.dense)
	sc.feats = reuse(sc.feats)
	sc.vals = reuse(sc.vals)
	sc.margins = reuse(sc.margins)
	sc.out = reuse(sc.out)
	scratchPool.Put(sc)
}

// reuse empties s for the next request, or drops it when it is too large
// to keep pooled.
func reuse[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > maxPooledBytes {
		return nil
	}
	return s[:0]
}

// decode reads and parses one predict body of declared length size (-1
// when unknown) into feats, vals and proba. On failure the returned
// status is the HTTP code to answer with. maxRows must be positive.
func (sc *predictScratch) decode(body io.Reader, size int64, maxRows int) (int, error) {
	readErr := sc.readBody(body, size)
	sc.pos, sc.maxRows, sc.proba = 0, maxRows, false
	sc.idx, sc.val = sc.idx[:0], sc.val[:0]
	sc.nRows, sc.rows = 0, sc.rows[:0]
	sc.nDense, sc.dense = 0, sc.dense[:0]
	sc.feats, sc.vals = sc.feats[:0], sc.vals[:0]
	if err := sc.parse(); err != nil {
		// A value that completed before a read error still decodes, as it
		// would for json.Decoder; an incomplete one reports the read error.
		if readErr != nil {
			err = fmt.Errorf("decode request: %w", readErr)
		}
		return http.StatusBadRequest, err
	}
	return sc.finish()
}

// readBody reads the whole body into sc.body, allocating it from the
// declared size up front (up to maxBodyPresize) rather than by doubling.
func (sc *predictScratch) readBody(r io.Reader, size int64) error {
	buf := sc.body[:0]
	if size > 0 {
		buf = slices.Grow(buf, int(min(size, maxBodyPresize)))
	}
	for {
		if len(buf) == cap(buf) {
			if size >= 0 && int64(len(buf)) >= size {
				break
			}
			grow := max(len(buf), 512)
			if size > 0 {
				grow = int(min(int64(grow), size-int64(len(buf))))
			}
			buf = slices.Grow(buf, grow)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	sc.body = buf
	return nil
}

// finish checks the decoded request as a whole and lays its rows out in
// feats and vals: sparse rows sorted in place, dense rows sparsified into
// the arenas.
func (sc *predictScratch) finish() (int, error) {
	nr, nd := sc.nRows, sc.nDense
	n := nr + nd
	if n == 0 {
		return http.StatusBadRequest, errors.New("empty request: provide rows or dense")
	}
	if n > sc.maxRows {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("%d rows exceeds batch limit %d", n, sc.maxRows)
	}
	// Reserve the sparsified dense rows' room first, so no append below
	// moves an arena under the views already taken.
	extra := 0
	for _, d := range sc.dense[:nd] {
		extra += d.len
	}
	sc.idx = slices.Grow(sc.idx, extra)
	sc.val = slices.Grow(sc.val, extra)
	for i, r := range sc.rows[:nr] {
		if r.idx.len != r.val.len {
			return http.StatusBadRequest, fmt.Errorf("row %d: %d indices but %d values", i, r.idx.len, r.val.len)
		}
		feat := sc.idx[r.idx.off : r.idx.off+r.idx.len]
		val := sc.val[r.val.off : r.val.off+r.val.len]
		if !slices.IsSorted(feat) {
			sort.Sort(&rowSorter{feat, val})
		}
		for j := 1; j < len(feat); j++ {
			if feat[j] == feat[j-1] {
				return http.StatusBadRequest, fmt.Errorf("row %d: duplicate feature index %d", i, feat[j])
			}
		}
		sc.feats, sc.vals = append(sc.feats, feat), append(sc.vals, val)
	}
	for _, d := range sc.dense[:nd] {
		fo, vo := len(sc.idx), len(sc.val)
		for j := range d.len {
			// Zeros are dropped, the storage convention of the training data.
			if v := sc.val[d.off+j]; v != 0 {
				sc.idx, sc.val = append(sc.idx, uint32(j)), append(sc.val, v)
			}
		}
		sc.feats, sc.vals = append(sc.feats, sc.idx[fo:]), append(sc.vals, sc.val[vo:])
	}
	return http.StatusOK, nil
}

// rowSorter sorts one sparse row's parallel slices by feature id.
type rowSorter struct {
	feat []uint32
	val  []float32
}

func (s *rowSorter) Len() int           { return len(s.feat) }
func (s *rowSorter) Less(i, j int) bool { return s.feat[i] < s.feat[j] }
func (s *rowSorter) Swap(i, j int) {
	s.feat[i], s.feat[j] = s.feat[j], s.feat[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

var (
	requestFields = [][]byte{[]byte("rows"), []byte("dense"), []byte("proba")}
	rowFields     = [][]byte{[]byte("indices"), []byte("values")}
)

// parse decodes the top-level object.
func (sc *predictScratch) parse() error {
	if sc.skipSpace() != '{' {
		return sc.typeError("PredictRequest")
	}
	return sc.object(requestFields, func(field int) error {
		switch field {
		case 0:
			return sc.decodeRows()
		case 1:
			return sc.decodeDense()
		}
		return sc.decodeProba()
	})
}

func (sc *predictScratch) decodeProba() error {
	switch sc.skipSpace() {
	case 't':
		sc.proba = true
		return sc.literal("true")
	case 'f':
		sc.proba = false
		return sc.literal("false")
	case 'n':
		return sc.literal("null")
	}
	return sc.typeError("bool")
}

// decodeRows decodes the "rows" value into the emulated []SparseRow.
func (sc *predictScratch) decodeRows() error {
	switch sc.skipSpace() {
	case 'n':
		sc.nRows, sc.rows = 0, sc.rows[:0]
		return sc.literal("null")
	case '[':
	default:
		return sc.typeError("[]SparseRow")
	}
	n, err := sc.array(func(i int) error {
		if i >= sc.maxRows {
			// Past the batch limit the request gets 413 unless a later
			// key shortens it; parse the row without storing it.
			var skip rowSlot
			return sc.decodeRow(&skip, false)
		}
		if i == len(sc.rows) {
			sc.rows = append(sc.rows, rowSlot{})
		}
		return sc.decodeRow(&sc.rows[i], true)
	})
	if err != nil {
		return err
	}
	if sc.nRows = n; n == 0 {
		sc.rows = sc.rows[:0]
	}
	return nil
}

// decodeRow decodes one SparseRow into r; store false parses without
// writing the arenas.
func (sc *predictScratch) decodeRow(r *rowSlot, store bool) error {
	switch sc.skipSpace() {
	case 'n':
		return sc.literal("null")
	case '{':
	default:
		return sc.typeError("SparseRow")
	}
	return sc.object(rowFields, func(field int) error {
		if field == 0 {
			return decodeNums(sc, &r.idx, &sc.idx, store, parseIndex)
		}
		return decodeNums(sc, &r.val, &sc.val, store, parseValue)
	})
}

// decodeDense decodes the "dense" value into the emulated [][]float32.
func (sc *predictScratch) decodeDense() error {
	switch sc.skipSpace() {
	case 'n':
		sc.nDense, sc.dense = 0, sc.dense[:0]
		return sc.literal("null")
	case '[':
	default:
		return sc.typeError("[][]float32")
	}
	n, err := sc.array(func(i int) error {
		if i >= sc.maxRows {
			var skip span
			return decodeNums(sc, &skip, &sc.val, false, parseValue)
		}
		if i == len(sc.dense) {
			sc.dense = append(sc.dense, span{})
		}
		return decodeNums(sc, &sc.dense[i], &sc.val, true, parseValue)
	})
	if err != nil {
		return err
	}
	if sc.nDense = n; n == 0 {
		sc.dense = sc.dense[:0]
	}
	return nil
}

// decodeNums decodes a JSON array of numbers, or null, into the emulated
// slice s whose elements live in *arena. store false parses without
// writing the arena.
func decodeNums[T uint32 | float32](sc *predictScratch, s *span, arena *[]T, store bool, parse func([]byte) (T, bool)) error {
	switch sc.skipSpace() {
	case 'n':
		*s = span{}
		return sc.literal("null")
	case '[':
	default:
		return sc.typeError("array of numbers")
	}
	n, err := sc.array(func(i int) error {
		var v T
		null := sc.skipSpace() == 'n'
		if null {
			if err := sc.literal("null"); err != nil {
				return err
			}
		} else {
			tok, err := sc.number()
			if err != nil {
				return err
			}
			var ok bool
			if v, ok = parse(tok); !ok {
				return fmt.Errorf("decode request: cannot decode number %s into this field at offset %d", tok, sc.pos-len(tok))
			}
		}
		if !store {
			return nil
		}
		if i == s.written {
			if s.off+s.written != len(*arena) {
				// Extend at the end of the arena, moving the written
				// elements there first. That copies fewer elements than
				// this array holds, so a body pays for each move.
				off := len(*arena)
				*arena = append(*arena, (*arena)[s.off:s.off+s.written]...)
				s.off = off
			}
			*arena = append(*arena, 0)
			s.written++
		}
		if !null { // a null element leaves the element as it was
			(*arena)[s.off+i] = v
		}
		return nil
	})
	switch {
	case err != nil:
		return err
	case n == 0:
		*s = span{}
	default:
		s.len = n
	}
	return nil
}

// parseIndex converts a JSON number to a feature id as encoding/json
// converts one to uint32.
func parseIndex(tok []byte) (uint32, bool) {
	v, err := strconv.ParseUint(string(tok), 10, 32)
	return uint32(v), err == nil
}

// parseValue converts a JSON number to a feature value as encoding/json
// converts one to float32.
func parseValue(tok []byte) (float32, bool) {
	f, err := strconv.ParseFloat(string(tok), 32)
	return float32(f), err == nil
}

// array parses the JSON array at the cursor, which is at '[', calling
// elem with each element's index with the cursor at the element. It
// returns the element count.
func (sc *predictScratch) array(elem func(i int) error) (int, error) {
	sc.pos++
	if sc.skipSpace() == ']' {
		sc.pos++
		return 0, nil
	}
	for i := 0; ; {
		if err := elem(i); err != nil {
			return i, err
		}
		i++
		switch sc.skipSpace() {
		case ',':
			sc.pos++
		case ']':
			sc.pos++
			return i, nil
		default:
			return i, sc.syntaxError("after array element")
		}
	}
}

// object parses the JSON object at the cursor, which is at '{', calling
// member with each key's index in fields with the cursor at the value. A
// key that matches no field fails the decode: unknown fields are
// rejected.
func (sc *predictScratch) object(fields [][]byte, member func(field int) error) error {
	sc.pos++
	if sc.skipSpace() == '}' {
		sc.pos++
		return nil
	}
	for {
		field, err := sc.key(fields)
		if err != nil {
			return err
		}
		if sc.skipSpace() != ':' {
			return sc.syntaxError("after object key")
		}
		sc.pos++
		if err := member(field); err != nil {
			return err
		}
		switch sc.skipSpace() {
		case ',':
			sc.pos++
		case '}':
			sc.pos++
			return nil
		default:
			return sc.syntaxError("after object key:value pair")
		}
	}
}

// maxKeyBytes bounds an unescaped key that can still name a field: the
// longest field name with its 's' written as the two-byte 'ſ', which
// folds to it.
const maxKeyBytes = len("indiceſ")

// key parses an object key and returns its index in fields.
func (sc *predictScratch) key(fields [][]byte) (int, error) {
	if sc.skipSpace() != '"' {
		return -1, sc.syntaxError("looking for beginning of object key string")
	}
	start := sc.pos
	sc.pos++
	var buf [maxKeyBytes]byte
	n := 0
	for {
		if sc.pos >= len(sc.body) {
			return -1, sc.syntaxError("in string literal")
		}
		c := sc.body[sc.pos]
		var r rune
		switch {
		case c == '"':
			sc.pos++
			for i, f := range fields {
				if bytes.EqualFold(buf[:n], f) {
					return i, nil
				}
			}
			return -1, sc.unknownField(start)
		case c == '\\':
			var err error
			if r, err = sc.escape(); err != nil {
				return -1, err
			}
		case c < ' ':
			return -1, sc.syntaxError("in string literal")
		case c < utf8.RuneSelf:
			r = rune(c)
			sc.pos++
		default:
			// Invalid UTF-8 decodes to U+FFFD byte by byte, as
			// encoding/json's unquote replaces it.
			var size int
			r, size = utf8.DecodeRune(sc.body[sc.pos:])
			sc.pos += size
		}
		if n+utf8.RuneLen(r) > len(buf) {
			return -1, sc.unknownField(start)
		}
		n += utf8.EncodeRune(buf[n:], r)
	}
}

// escape decodes the escape sequence at the cursor, joining a UTF-16
// surrogate pair and replacing a lone surrogate with U+FFFD as
// encoding/json does.
func (sc *predictScratch) escape() (rune, error) {
	const escaped, unescaped = "\"\\/bfnrt", "\"\\/\b\f\n\r\t"
	if sc.pos+1 < len(sc.body) {
		if i := strings.IndexByte(escaped, sc.body[sc.pos+1]); i >= 0 {
			sc.pos += 2
			return rune(unescaped[i]), nil
		}
	}
	r := getu4(sc.body[sc.pos:])
	if r < 0 {
		sc.pos = min(sc.pos+2, len(sc.body))
		return 0, sc.syntaxError("in string escape code")
	}
	sc.pos += 6
	if utf16.IsSurrogate(r) {
		if pair := utf16.DecodeRune(r, getu4(sc.body[sc.pos:])); pair != unicode.ReplacementChar {
			sc.pos += 6
			return pair, nil
		}
		return unicode.ReplacementChar, nil
	}
	return r, nil
}

// getu4 decodes \uXXXX at the start of b, or returns -1.
func getu4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// number scans the JSON number at the cursor and returns its text.
func (sc *predictScratch) number() ([]byte, error) {
	b, p := sc.body, sc.pos
	digits := func() {
		for p < len(b) && '0' <= b[p] && b[p] <= '9' {
			p++
		}
	}
	start := p
	if p < len(b) && b[p] == '-' {
		p++
	}
	switch {
	case p < len(b) && b[p] == '0':
		p++
	case p < len(b) && '1' <= b[p] && b[p] <= '9':
		digits()
	default:
		sc.pos = p
		if p == start && p < len(b) {
			return nil, sc.typeError("number")
		}
		return nil, sc.syntaxError("in numeric literal")
	}
	if p < len(b) && b[p] == '.' {
		p++
		if p >= len(b) || b[p] < '0' || b[p] > '9' {
			sc.pos = p
			return nil, sc.syntaxError("after decimal point in numeric literal")
		}
		digits()
	}
	if p < len(b) && (b[p] == 'e' || b[p] == 'E') {
		p++
		if p < len(b) && (b[p] == '+' || b[p] == '-') {
			p++
		}
		if p >= len(b) || b[p] < '0' || b[p] > '9' {
			sc.pos = p
			return nil, sc.syntaxError("in exponent of numeric literal")
		}
		digits()
	}
	sc.pos = p
	return b[start:p], nil
}

// literal consumes lit (true, false or null) at the cursor.
func (sc *predictScratch) literal(lit string) error {
	end := sc.pos + len(lit)
	if end > len(sc.body) || string(sc.body[sc.pos:end]) != lit {
		return sc.syntaxError("in literal " + lit)
	}
	sc.pos = end
	return nil
}

// skipSpace advances past JSON whitespace and returns the byte at the
// cursor, or 0 at the end of the body.
func (sc *predictScratch) skipSpace() byte {
	for sc.pos < len(sc.body) {
		switch c := sc.body[sc.pos]; c {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return c
		}
	}
	return 0
}

func (sc *predictScratch) syntaxError(where string) error {
	if sc.pos >= len(sc.body) {
		return errors.New("decode request: unexpected end of JSON input")
	}
	return fmt.Errorf("decode request: invalid character %q %s at offset %d", sc.body[sc.pos], where, sc.pos)
}

// typeError reports a value at the cursor that cannot decode into want.
func (sc *predictScratch) typeError(want string) error {
	kind := ""
	switch c := sc.skipSpace(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return sc.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("decode request: cannot decode %s into %s at offset %d", kind, want, sc.pos)
}

func (sc *predictScratch) unknownField(start int) error {
	end := min(sc.pos, start+64)
	return fmt.Errorf("decode request: unknown field %s at offset %d", sc.body[start:end], start)
}
