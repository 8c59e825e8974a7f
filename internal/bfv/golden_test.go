package bfv

import (
	"crypto/sha256"
	"encoding"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/codec.golden from the current implementation")

// TestCodecGolden pins the byte layout of every bfv wire and disk record —
// one value of each type under a fixed seed — against digests generated
// through the hand-written per-type codecs that preceded internal/bin.
// Each line is "type bytes sha256". Wire v10 replaced the ciphertext
// record with the upload and response records; the other lines kept their
// digests. Wire v13 moved three lines: the public key is seed ‖ b, the
// response is re-randomized, and the upload line, which until then digested
// the upload after Respond had transformed its shared c0 in place, digests
// the upload as sent (the bytes of which did not change).
func TestCodecGolden(t *testing.T) {
	p := testParams
	sk, pk := KeyGen(p, newSeeded(41))
	m := randomMessage(rand.New(rand.NewSource(42)), p, p.N)
	up := NewSeededEncryptor(p, sk, newSeeded(43)).EncryptCoeffs(m)
	pl := PlanMatVec(p, 40, 300)
	mask := randomMessage(rand.New(rand.NewSource(44)), p, pl.Out)
	// Respond consumes its ciphertext, whose c0 the upload shares: it gets
	// a copy, so the upload line digests the upload as sent.
	ct := up.Ciphertext()
	ct.c0 = append([]uint64(nil), ct.c0...)
	records := []struct {
		name string
		v    encoding.BinaryMarshaler
	}{
		{"upload", up},
		{"response", pl.Respond(&ct, mask, 0, pk.Expand(), [SeedSize]byte{4})},
		{"plaintext", NewEncoder(p).EncodeMulNTT(m)},
		{"secretkey", sk},
		{"publickey", pk},
	}
	var got strings.Builder
	for _, rec := range records {
		raw, err := rec.v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", rec.name, len(raw), sha256.Sum256(raw))
	}

	path := filepath.Join("testdata", "codec.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("bfv encodings changed (run with -update only for a deliberate format bump)\ngot:\n%swant:\n%s", got.String(), want)
	}
}
