// Package bintest is the fuzz harness every record decoder built on
// internal/bin shares.
package bintest

import (
	"bytes"
	"encoding"
	"testing"
)

// FuzzRoundTrip drives decode with attacker-controlled bytes, seeded with a
// valid encoding and its truncations: decode either errors or yields a
// value that re-marshals to exactly the input — the codec admits only its
// own canonical encoding — and never panics.
func FuzzRoundTrip(f *testing.F, valid []byte, decode func([]byte) (encoding.BinaryMarshaler, error)) {
	for _, cut := range []int{len(valid), len(valid) - 1, len(valid) / 2, 8, 1, 0} {
		f.Add(valid[:min(cut, len(valid))])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decode(data)
		if err != nil {
			return
		}
		re, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical payload accepted: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}
	})
}
