package garble

import (
	"crypto/aes"
	"crypto/cipher"
	"io"
)

// NewPRG expands a 128-bit seed into a deterministic byte stream with
// AES-CTR under a zero IV — the same expansion internal/ot uses for its
// extension streams. It is the entropysafe-clean source of GarbleBatch's
// wire labels: the delphi garbler draws one seed per layer from its
// injected entropy source and hands the PRG to GarbleBatch, so bulk label
// material costs one short entropy read and replays deterministically in
// tests. The returned reader never fails and is not safe for concurrent
// use.
func NewPRG(seed [LabelSize]byte) io.Reader {
	return &prgReader{stream: newCTR(seed)}
}

// ExpandSeed sets dst to the first len(dst) bytes of NewPRG(seed)'s stream.
// It builds no reader, so it costs the key schedule and the CTR state and
// nothing else: the evaluator expands a layer's public label seed with it
// on the online path.
func ExpandSeed(dst []byte, seed [LabelSize]byte) {
	clear(dst)
	newCTR(seed).XORKeyStream(dst, dst)
}

func newCTR(seed [LabelSize]byte) cipher.Stream {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("garble: prg init failed: " + err.Error())
	}
	return cipher.NewCTR(block, zeroIV[:])
}

// zeroIV is NewPRG's IV. It is never written: a package variable, so a PRG
// does not allocate one.
var zeroIV [aes.BlockSize]byte

type prgReader struct {
	stream cipher.Stream
}

func (r *prgReader) Read(p []byte) (int, error) {
	// XORKeyStream over a zeroed buffer yields the raw keystream; callers
	// may hand us dirty scratch, so clear it first.
	clear(p)
	r.stream.XORKeyStream(p, p)
	return len(p), nil
}
