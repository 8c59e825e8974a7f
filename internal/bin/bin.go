// Package bin is the one little-endian record cursor behind every on-disk
// and on-wire codec in this module: a Writer that appends to a growing
// buffer and a sticky-error Reader that never reads past its input. The
// Reader's Count is the only way to read an element count, and it refuses
// any count the remaining bytes cannot hold — so "length checked before
// allocation" is a property of the type, not of each decoder.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrTruncated is the Reader's one failure: a field, or a count of fields,
// reaches past the end of the payload.
var ErrTruncated = errors.New("bin: payload truncated")

// Writer appends little-endian fields to Buf. Size Buf's capacity up front
// and an encoder pays one allocation.
type Writer struct {
	Buf []byte
}

// U64 appends one 8-byte word.
func (w *Writer) U64(v uint64) { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }

// Bytes appends b as is.
func (w *Writer) Bytes(b []byte) { w.Buf = append(w.Buf, b...) }

// Blob appends b behind its length.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.Bytes(b)
}

// U64s appends every word of v, growing Buf at most once.
func (w *Writer) U64s(v []uint64) {
	off := len(w.Buf)
	w.Buf = slices.Grow(w.Buf, 8*len(v))[:off+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(w.Buf[off+8*i:], x)
	}
}

// Reader consumes little-endian fields from a payload. The first read that
// would pass the end sets a sticky ErrTruncated; every later read returns a
// zero value, so a decoder checks Err once per group of reads rather than
// once per field.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a cursor at the start of data.
func NewReader(data []byte) Reader { return Reader{buf: data} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Err returns ErrTruncated once any read has failed, else nil.
func (r *Reader) Err() error { return r.err }

// Take returns the next n bytes, aliasing the payload.
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || n > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads one 8-byte word.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count reads a count of elements that each occupy at least elemBytes (> 0)
// of the payload and fails unless that many can still follow, so the result
// is safe to size an allocation with.
func (r *Reader) Count(elemBytes int) int {
	n := r.U64()
	if r.err != nil || n > uint64(r.Remaining()/elemBytes) {
		r.err = ErrTruncated
		return 0
	}
	return int(n)
}

// Blob reads a length-prefixed byte string written by Writer.Blob.
func (r *Reader) Blob() []byte { return r.Take(r.Count(1)) }

// U64s fills dst, which the caller sized from a Count or a known shape,
// with the next len(dst) words.
func (r *Reader) U64s(dst []uint64) {
	b := r.Take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// Done is the check every decoder ends with: the sticky error if a read
// failed, an error if bytes remain unread, else nil.
func (r *Reader) Done() error {
	if r.err == nil && r.Remaining() != 0 {
		return fmt.Errorf("bin: %d trailing bytes", r.Remaining())
	}
	return r.err
}
