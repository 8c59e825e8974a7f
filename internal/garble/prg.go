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
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("garble: prg init failed: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	return &prgReader{stream: cipher.NewCTR(block, iv[:])}
}

type prgReader struct {
	stream cipher.Stream
}

func (r *prgReader) Read(p []byte) (int, error) {
	// XORKeyStream over a zeroed buffer yields the raw keystream; callers
	// may hand us dirty scratch, so clear it first.
	for i := range p {
		p[i] = 0
	}
	r.stream.XORKeyStream(p, p)
	return len(p), nil
}
