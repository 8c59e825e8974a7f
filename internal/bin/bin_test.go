package bin

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestRoundTrip: every Writer method is read back by its Reader twin, and
// Done accepts exactly the bytes written.
func TestRoundTrip(t *testing.T) {
	words := []uint64{0, 1, 1 << 63, 42}
	var w Writer
	w.U64(7)
	w.Blob([]byte("label"))
	w.Bytes([]byte{0xAB})
	w.U64(uint64(len(words)))
	w.U64s(words)
	w.Blob(nil)

	r := NewReader(w.Buf)
	if got := r.U64(); got != 7 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.Blob(); string(got) != "label" {
		t.Fatalf("Blob = %q", got)
	}
	if got := r.Take(1); !bytes.Equal(got, []byte{0xAB}) {
		t.Fatalf("Take = %x", got)
	}
	got := make([]uint64, r.Count(8))
	r.U64s(got)
	if !slices.Equal(got, words) {
		t.Fatalf("U64s = %v", got)
	}
	if got := r.Blob(); len(got) != 0 {
		t.Fatalf("empty Blob = %x", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}

	r = NewReader(append(w.Buf, 0))
	r.Take(len(w.Buf))
	if err := r.Done(); err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("Done with a trailing byte = %v, want a trailing-bytes error", err)
	}
}

// TestCountRefusesWhatCannotFollow: a count is accepted only when that many
// elements fit in the bytes behind it, including counts whose byte size
// would overflow.
func TestCountRefusesWhatCannotFollow(t *testing.T) {
	for _, tc := range []struct {
		count     uint64
		elemBytes int
		tail      int
		ok        bool
	}{
		{3, 8, 24, true},
		{3, 8, 23, false},
		{0, 8, 0, true},
		{1 << 61, 8, 64, false},  // 8*count wraps to 0
		{1<<63 + 1, 1, 9, false}, // negative as an int
	} {
		var w Writer
		w.U64(tc.count)
		w.Bytes(make([]byte, tc.tail))
		r := NewReader(w.Buf)
		n := r.Count(tc.elemBytes)
		if ok := r.Err() == nil; ok != tc.ok || (ok && uint64(n) != tc.count) || (!ok && n != 0) {
			t.Errorf("Count(%d) of %d with %d bytes behind it = %d, err %v", tc.elemBytes, tc.count, tc.tail, n, r.Err())
		}
	}
}

// TestReaderStaysInsideInput drives random op sequences over random inputs
// (salted with small words so counts sometimes succeed). After every op the
// cursor has consumed exactly what it returned, never more than remained;
// a count never promises more than the bytes behind it; and a failure is
// sticky: nothing is consumed or returned afterwards.
func TestReaderStaysInsideInput(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5000; trial++ {
		buf := make([]byte, rng.Intn(160))
		rng.Read(buf)
		for i := 0; i+8 <= len(buf); i += 8 {
			if rng.Intn(2) == 0 {
				copy(buf[i:], []byte{byte(rng.Intn(12)), 0, 0, 0, 0, 0, 0, 0})
			}
		}
		r := NewReader(buf)
		for step := 0; step < 30; step++ {
			before, failed := r.Remaining(), r.Err() != nil
			consumed := 0
			switch rng.Intn(5) {
			case 0:
				r.U64()
				consumed = 8
			case 1:
				n := rng.Intn(64) - 4
				if b := r.Take(n); len(b) != 0 && len(b) != n {
					t.Fatalf("Take(%d) returned %d bytes", n, len(b))
				}
				consumed = n
			case 2:
				elem := 1 + rng.Intn(16)
				if n := r.Count(elem); n < 0 || n > r.Remaining()/elem {
					t.Fatalf("Count(%d) = %d with %d bytes remaining", elem, n, r.Remaining())
				}
				consumed = 8
			case 3:
				consumed = 8 + len(r.Blob())
			case 4:
				dst := make([]uint64, rng.Intn(6))
				r.U64s(dst)
				consumed = 8 * len(dst)
			}
			after := r.Remaining()
			switch {
			case after < 0 || after > before:
				t.Fatalf("remaining went %d -> %d", before, after)
			case failed && (after != before || r.Err() == nil):
				t.Fatalf("failed reader consumed %d bytes or lost its error", before-after)
			case r.Err() == nil && before-after != consumed:
				t.Fatalf("op consumed %d bytes, returned %d", before-after, consumed)
			case r.Err() != nil && !errors.Is(r.Err(), ErrTruncated):
				t.Fatalf("unexpected error %v", r.Err())
			}
		}
	}
}
