package bfv

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"io"

	"privinf/internal/bin"
	"privinf/internal/ringq"
)

// SeedSize is the length of the seed an upload's c1 expands from.
const SeedSize = 16

// SeededEncryptor encrypts under the secret key with c1 expanded from a
// seed, so a ciphertext travels as seed ‖ c0: half the bytes of a
// public-key encryption, one forward NTT instead of four, and one sampled
// polynomial instead of three (see the package doc).
type SeededEncryptor struct {
	params Params
	sk     SecretKey
	smp    *sampler
}

// NewSeededEncryptor returns an encryptor under sk. src may be nil
// (crypto/rand); it supplies each upload's seed and noise.
func NewSeededEncryptor(p Params, sk SecretKey, src io.Reader) *SeededEncryptor {
	return &SeededEncryptor{params: p, sk: sk, smp: newSampler(src)}
}

// Upload is a seeded encryption in transport form: the seed c1 expands
// from, and c0 in the NTT domain.
type Upload struct {
	seed [SeedSize]byte
	c0   []uint64
}

// EncryptCoeffs encrypts a message given as raw coefficients in [0, T);
// shorter messages are zero-padded. It draws the seed, then the noise.
func (e *SeededEncryptor) EncryptCoeffs(m []uint64) Upload {
	p := e.params
	if len(m) > p.N {
		panic("bfv: message longer than ring degree")
	}
	var u Upload
	copy(u.seed[:], e.smp.read(SeedSize/8)) // read counts 8-byte words
	// c0 = NTT(Δm + e) − a·s.
	u.c0 = make([]uint64, p.N)
	e.smp.cbd(u.c0)
	for i, v := range m {
		if v >= p.T {
			panic("bfv: message coefficient out of plaintext range")
		}
		u.c0[i] = ringq.Add(u.c0[i], ringq.Mul(v, p.delta))
	}
	p.ntt.Forward(u.c0)
	a := getScratch(p.N)
	defer putScratch(a)
	expandSeed(a, u.seed)
	ringq.MulInto(a, a, e.sk.s)
	ringq.SubInto(u.c0, u.c0, a)
	return u
}

// Ciphertext expands the upload's c1 and returns the ciphertext; it shares
// c0 with the upload.
func (u Upload) Ciphertext() Ciphertext {
	c1 := make([]uint64, len(u.c0))
	expandSeed(c1, u.seed)
	return Ciphertext{c0: u.c0, c1: c1}
}

// expandSeed fills a with the uniform NTT-domain polynomial the seed names:
// rejection sampling over the seed's stream.
func expandSeed(a []uint64, seed [SeedSize]byte) { newSampler(seedStream(seed)).uniform(a) }

// seedStream returns the AES-CTR keystream under seed, zero IV.
func seedStream(seed [SeedSize]byte) io.Reader {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic(err) // unreachable: the key is 16 bytes
	}
	return keystream{cipher.NewCTR(block, make([]byte, aes.BlockSize))}
}

// keystream reads a stream cipher's keystream.
type keystream struct{ cipher.Stream }

func (k keystream) Read(p []byte) (int, error) {
	clear(p)
	k.XORKeyStream(p, p)
	return len(p), nil
}

// MarshalBinary encodes the upload as seed ‖ c0, SeedSize + 8·N bytes.
func (u Upload) MarshalBinary() ([]byte, error) { return marshalSeeded(u.seed, u.c0) }

// ParseUpload decodes an upload of exactly SeedSize + 8·N bytes. A c0
// coefficient ≥ q is rejected: the matvec kernels assume canonical input.
func (p Params) ParseUpload(data []byte) (Upload, error) {
	seed, c0, err := parseSeeded(p.N, data, "upload")
	return Upload{seed: seed, c0: c0}, err
}

// MarshalBinary encodes the public key as seed ‖ b, SeedSize + 8·N bytes.
func (pk PublicKey) MarshalBinary() ([]byte, error) { return marshalSeeded(pk.seed, pk.b) }

// ParsePublicKey decodes a degree-n public key of exactly SeedSize + 8·n
// bytes, every b coefficient below q, for n in 1..MaxRingDegree. The key
// holds no a until Expand.
func ParsePublicKey(n int, data []byte) (PublicKey, error) {
	if n < 1 || n > MaxRingDegree {
		return PublicKey{}, fmt.Errorf("bfv: public key of degree %d", n)
	}
	seed, b, err := parseSeeded(n, data, "public key")
	return PublicKey{seed: seed, b: b}, err
}

// marshalSeeded encodes a seeded record, seed ‖ poly.
func marshalSeeded(seed [SeedSize]byte, poly []uint64) ([]byte, error) {
	w := bin.Writer{Buf: make([]byte, 0, SeedSize+8*len(poly))}
	w.Bytes(seed[:])
	w.U64s(poly)
	return w.Buf, nil
}

// parseSeeded decodes a degree-n seeded record of exactly SeedSize + 8·n
// bytes whose every coefficient is below q.
func parseSeeded(n int, data []byte, what string) ([SeedSize]byte, []uint64, error) {
	var seed [SeedSize]byte
	if len(data) != SeedSize+8*n {
		return seed, nil, fmt.Errorf("bfv: %s of %d bytes, want %d", what, len(data), SeedSize+8*n)
	}
	r := bin.NewReader(data)
	copy(seed[:], r.Take(SeedSize))
	poly := make([]uint64, n)
	r.U64s(poly)
	for i, v := range poly {
		if v >= ringq.Q {
			return seed, nil, fmt.Errorf("bfv: %s coefficient %d is not below q", what, i)
		}
	}
	return seed, poly, r.Done()
}
