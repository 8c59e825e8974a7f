package bfv

import (
	"fmt"

	"privinf/internal/bin"
)

// Serialization uses a fixed little-endian layout so keys and weight
// plaintexts can cross the client-server transport and sit on disk: every
// ring record is its degree followed by one or two coefficient vectors of
// that degree. The degree is embedded as a sanity check against parameter
// mismatches between the two parties. Ciphertexts and the public key travel
// only as the fixed-shape records of seeded.go and response.go.

// marshalPoly encodes a degree-len(a) record in one exact-size allocation.
func marshalPoly(a []uint64) ([]byte, error) {
	return Plaintext{coeffs: a}.AppendBinary(make([]byte, 0, 8+8*len(a)))
}

// readDegree opens a one-vector record: the stored degree has to account
// for every remaining byte, so a wild degree cannot reach an allocation.
func readDegree(r *bin.Reader, what string) (int, error) {
	total := r.Remaining()
	n := r.Count(8)
	if r.Err() != nil || n == 0 || r.Remaining() != 8*n {
		return 0, fmt.Errorf("bfv: %s of %d bytes is not a whole degree-%d record", what, total, n)
	}
	return n, nil
}

// MarshalBinary encodes the plaintext (its coefficient vector, in whatever
// domain it is in — the domain is a property of how the plaintext will be
// used, not of the encoding). Model-artifact persistence serializes the
// NTT-domain weight plaintexts this way.
func (p Plaintext) MarshalBinary() ([]byte, error) { return marshalPoly(p.coeffs) }

// AppendBinary appends the MarshalBinary encoding to b and returns the
// extended slice (encoding.BinaryAppender). Artifact serialization encodes
// thousands of weight plaintexts into one buffer; appending in place
// avoids a per-plaintext temporary.
func (p Plaintext) AppendBinary(b []byte) ([]byte, error) {
	w := bin.Writer{Buf: b}
	w.U64(uint64(len(p.coeffs)))
	w.U64s(p.coeffs)
	return w.Buf, nil
}

// UnmarshalBinary decodes a plaintext produced by MarshalBinary into a
// buffer of the degree a whole record of len(data) bytes has.
func (p *Plaintext) UnmarshalBinary(data []byte) error {
	return p.UnmarshalBinaryBuffer(data, make([]uint64, max(len(data)-8, 0)/8))
}

// UnmarshalBinaryBuffer is UnmarshalBinary decoding into buf — whose length
// must equal the encoded degree — instead of allocating; the plaintext
// retains buf. Artifact loading decodes thousands of plaintexts and carves
// their buffers from one backing array, which replaces per-plaintext
// allocation, zeroing, and GC tracking with a single slab.
func (p *Plaintext) UnmarshalBinaryBuffer(data []byte, buf []uint64) error {
	r := bin.NewReader(data)
	n, err := readDegree(&r, "plaintext")
	if err != nil {
		return err
	}
	if n != len(buf) {
		return fmt.Errorf("bfv: plaintext degree %d does not fit buffer of %d", n, len(buf))
	}
	r.U64s(buf)
	p.coeffs = buf
	return nil
}

// MarshalBinary encodes the secret key (its NTT-domain coefficient
// vector). A secret key at rest is key material: callers persisting one
// (a client preamble store) own the file-permission and at-rest-protection
// story — the codec itself is plaintext.
func (sk SecretKey) MarshalBinary() ([]byte, error) { return marshalPoly(sk.s) }

// UnmarshalBinary decodes a secret key produced by MarshalBinary.
func (sk *SecretKey) UnmarshalBinary(data []byte) error {
	r := bin.NewReader(data)
	n, err := readDegree(&r, "secret key")
	if err != nil {
		return err
	}
	sk.s = make([]uint64, n)
	r.U64s(sk.s)
	return nil
}
