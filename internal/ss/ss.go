// Package ss implements additive secret sharing over the PI plaintext field
// (§2.1.2 of the paper): a value x splits into shares r and x-r, and
// additions are local. The DELPHI protocol layer draws its linear-layer
// masks from the same uniform sampler, with the server's model weights in
// the clear on the server side; the paper's networks are all-ReLU, so no
// share-by-share multiplication exists here.
package ss

import (
	"crypto/rand"
	"encoding/binary"
	"io"

	"privinf/internal/field"
)

// Sharing provides uniform sampling and share/reconstruct over one field.
type Sharing struct {
	F   field.Field
	src io.Reader
}

// New returns a Sharing over f. src supplies share randomness; nil means
// crypto/rand.
func New(f field.Field, src io.Reader) *Sharing {
	if src == nil {
		src = rand.Reader
	}
	return &Sharing{F: f, src: src}
}

// RandomVec samples a uniform vector of field elements.
func (s *Sharing) RandomVec(n int) []uint64 {
	out := make([]uint64, n)
	var buf [8]byte
	for i := range out {
		// Rejection sampling to keep the distribution uniform.
		bound := ^uint64(0) - (^uint64(0) % s.F.P())
		for {
			if _, err := io.ReadFull(s.src, buf[:]); err != nil {
				panic("ss: entropy source failed: " + err.Error())
			}
			v := binary.LittleEndian.Uint64(buf[:])
			if v < bound {
				out[i] = v % s.F.P()
				break
			}
		}
	}
	return out
}

// Share splits x into two additive shares (s1, s2) with s1+s2 = x mod p.
func (s *Sharing) Share(x []uint64) (s1, s2 []uint64) {
	s1 = s.RandomVec(len(x))
	s2 = make([]uint64, len(x))
	s.F.SubVec(s2, x, s1)
	return s1, s2
}

// Reconstruct recombines two share vectors.
func (s *Sharing) Reconstruct(s1, s2 []uint64) []uint64 {
	out := make([]uint64, len(s1))
	s.F.AddVec(out, s1, s2)
	return out
}
