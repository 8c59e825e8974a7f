package bfv

import (
	"crypto/rand"
	"encoding/binary"
	"io"

	"privinf/internal/ringq"
)

// sampler draws the random polynomials the scheme needs from an entropy
// source. Production callers use crypto/rand; tests inject seeded readers
// for reproducibility.
//
// Each polynomial's bytes come in one read of the words it needs at least,
// and more only when rejections leave it short. The words are consumed in
// stream order and never past what the polynomial uses, so the output for a
// given stream is the same as reading one word at a time: derived keys
// re-derive bit-identically.
type sampler struct {
	src io.Reader
	buf []byte
}

func newSampler(src io.Reader) *sampler {
	if src == nil {
		src = rand.Reader
	}
	return &sampler{src: src}
}

// read returns the next n words of the stream, reusing the sampler's buffer.
func (s *sampler) read(n int) []byte {
	if cap(s.buf) < 8*n {
		s.buf = make([]byte, 8*n)
	}
	b := s.buf[:8*n]
	if _, err := io.ReadFull(s.src, b); err != nil {
		// Entropy exhaustion is unrecoverable for key material.
		panic("bfv: entropy source failed: " + err.Error())
	}
	return b
}

// uniform fills out with independent uniform values in [0, Q).
func (s *sampler) uniform(out []uint64) {
	b := s.read(len(out))
	for i := range out {
		// Rejection sampling; Q is close to 2^64 so rejections are rare.
		for {
			if len(b) == 0 {
				b = s.read(len(out) - i)
			}
			v := binary.LittleEndian.Uint64(b)
			b = b[8:]
			if v < ringq.Q {
				out[i] = v
				break
			}
		}
	}
}

// ternary fills out with values in {-1, 0, 1} mod Q, uniformly.
func (s *sampler) ternary(out []uint64) {
	var b []byte
	var word uint64
	var remaining int
	for i := range out {
		for {
			if remaining == 0 {
				if len(b) == 0 {
					// A word yields at most 32 coefficients.
					b = s.read((len(out) - i + 31) / 32)
				}
				word = binary.LittleEndian.Uint64(b)
				b = b[8:]
				remaining = 32
			}
			v := word & 3
			word >>= 2
			remaining--
			switch v {
			case 0:
				out[i] = 0
			case 1:
				out[i] = 1
			case 2:
				out[i] = ringq.Q - 1
			default:
				continue // reject 3 for uniformity
			}
			break
		}
	}
}

// cbdEta is the centered-binomial parameter for error polynomials:
// e = sum of eta coin pairs, giving |e| ≤ eta with variance eta/2.
const cbdEta = 2

// cbd fills out with centered-binomial errors mod Q, one word each, of
// which it reads the low 2·cbdEta bits. Keys and uploads draw their errors
// here, so a derived key re-derives bit-identically.
func (s *sampler) cbd(out []uint64) {
	b := s.read(len(out))
	for i := range out {
		out[i] = cbdCoeff(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// cbdPacked is cbd on 16 coefficients a word, coefficient i on bits
// 4(i%16) to 4(i%16)+3 of word i/16: a response's fresh noise, which no
// one derives again, costs a sixteenth of the stream.
func (s *sampler) cbdPacked(out []uint64) {
	b := s.read((len(out) + 15) / 16)
	for i := range out {
		out[i] = cbdCoeff(binary.LittleEndian.Uint64(b[8*(i/16):]) >> (4 * (i % 16)))
	}
}

// cbdCoeff is the centered-binomial error mod Q of the low 2·cbdEta bits
// of bits: the sum of cbdEta coin pairs, each the first coin less the
// second.
func cbdCoeff(bits uint64) uint64 {
	var e int
	for j := 0; j < cbdEta; j++ {
		e += int(bits & 1)
		bits >>= 1
		e -= int(bits & 1)
		bits >>= 1
	}
	if e >= 0 {
		return uint64(e)
	}
	return ringq.Q - uint64(-e)
}

// addFlood adds to each of out a value uniform in [−2^f, 2^f) mod Q, one
// word each.
func (s *sampler) addFlood(out []uint64, f int) {
	b := s.read(len(out))
	for i := range out {
		out[i] = ringq.Add(out[i], ringq.Sub(binary.LittleEndian.Uint64(b[8*i:])&(1<<(f+1)-1), 1<<f))
	}
}
