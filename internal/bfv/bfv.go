package bfv

import (
	"io"
	"math/bits"
	"sync"

	"privinf/internal/ringq"
)

// SecretKey holds the ternary secret s in the NTT domain.
type SecretKey struct {
	s []uint64
}

// PublicKey is the pair (b, a) = (-(a·s + e), a), both in the NTT domain,
// where a expands from seed: the key travels as seed ‖ b. A parsed key
// holds no a until Expand.
type PublicKey struct {
	seed [SeedSize]byte
	b, a []uint64
}

// Ciphertext is a degree-1 RLWE ciphertext (c0, c1) kept permanently in the
// NTT domain; decryption computes c0 + c1·s.
type Ciphertext struct {
	c0, c1 []uint64
}

// Plaintext is an unencrypted ring element. Whether it is in the
// coefficient or NTT domain depends on how it will be used: operands of
// AccumulateMulPlain must be in the NTT domain (see Encoder.EncodeMulNTT),
// operands of SubPlainInto in the scaled NTT domain.
type Plaintext struct {
	coeffs []uint64
}

// SizeBytes returns the plaintext's resident memory footprint (its
// coefficient vector). Encoded-weight artifacts sum this for byte-budgeted
// caching.
func (p Plaintext) SizeBytes() uint64 { return uint64(len(p.coeffs)) * 8 }

// Degree returns the ring degree the secret key was generated for (0 for
// a zero-valued key) — the compatibility check callers run before reusing
// a deserialized key under a parameter set.
func (sk SecretKey) Degree() int { return len(sk.s) }

// Degree returns the ring degree the public key was generated for (0 for a
// zero-valued key).
func (pk PublicKey) Degree() int { return len(pk.b) }

// KeyGen generates a fresh key pair. src may be nil (crypto/rand). It draws
// s, then the seed a expands from, then e, so the stream's first words
// give the same s whatever the key's transport form. The public key comes
// back seeded, as ParsePublicKey returns it: it holds no a until Expand.
func KeyGen(p Params, src io.Reader) (SecretKey, PublicKey) {
	smp := newSampler(src)
	n := p.N

	s := make([]uint64, n)
	smp.ternary(s)
	p.ntt.Forward(s)

	var pk PublicKey
	copy(pk.seed[:], smp.read(SeedSize/8))
	e := getScratch(n)
	defer putScratch(e)
	smp.cbd(e)
	p.ntt.Forward(e)

	// b = -(a*s + e), a expanded into b's own buffer.
	pk.b = make([]uint64, n)
	expandSeed(pk.b, pk.seed)
	ringq.MulInto(pk.b, pk.b, s)
	ringq.AddInto(pk.b, pk.b, e)
	for i := range pk.b {
		pk.b[i] = ringq.Neg(pk.b[i])
	}
	return SecretKey{s: s}, pk
}

// Expand returns the key with a expanded from its seed; a key that holds
// a already is returned as is. The result shares its b with the key.
func (pk PublicKey) Expand() PublicKey {
	if pk.a == nil {
		pk.a = make([]uint64, len(pk.b))
		expandSeed(pk.a, pk.seed)
	}
	return pk
}

// Encryptor encrypts plaintexts under a public key.
type Encryptor struct {
	params Params
	pk     PublicKey
	smp    *sampler
}

// NewEncryptor returns an encryptor. src may be nil (crypto/rand).
func NewEncryptor(p Params, pk PublicKey, src io.Reader) *Encryptor {
	return &Encryptor{params: p, pk: pk.Expand(), smp: newSampler(src)}
}

// EncryptCoeffsBatch encrypts many messages at once, amortizing the
// transform cost through ringq.ForwardBatch (4 NTTs per ciphertext fan out
// across the worker pool instead of running back to back). Randomness is
// drawn message-by-message in exactly the order sequential EncryptCoeffs
// calls would consume it (ternary u, then cbd e1, e2 per message), so the
// output is bit-identical to encrypting each message in turn with the same
// source (the test file keeps that one-message EncryptCoeffs as the
// reference).
func (e *Encryptor) EncryptCoeffsBatch(msgs [][]uint64) []Ciphertext {
	p := e.params
	n := p.N
	out := make([]Ciphertext, len(msgs))
	if len(msgs) == 0 {
		return out
	}

	polys := make([][]uint64, 0, 4*len(msgs))
	for _, m := range msgs {
		if len(m) > n {
			panic("bfv: message longer than ring degree")
		}
		dm := getScratch(n)
		for i, v := range m {
			if v >= p.T {
				panic("bfv: message coefficient out of plaintext range")
			}
			dm[i] = ringq.Mul(v, p.delta)
		}
		u := getScratch(n)
		e.smp.ternary(u)
		e1 := getScratch(n)
		e.smp.cbd(e1)
		e2 := getScratch(n)
		e.smp.cbd(e2)
		polys = append(polys, dm, u, e1, e2)
	}
	p.ntt.ForwardBatch(polys)

	for ci := range msgs {
		dm, u, e1, e2 := polys[4*ci], polys[4*ci+1], polys[4*ci+2], polys[4*ci+3]
		c0 := make([]uint64, n)
		ringq.MulInto(c0, e.pk.b, u)
		ringq.AddInto(c0, c0, e1)
		ringq.AddInto(c0, c0, dm)
		c1 := make([]uint64, n)
		ringq.MulInto(c1, e.pk.a, u)
		ringq.AddInto(c1, c1, e2)
		out[ci] = Ciphertext{c0: c0, c1: c1}
	}
	for _, s := range polys {
		putScratch(s)
	}
	return out
}

// Decryptor decrypts ciphertexts under a secret key.
type Decryptor struct {
	params Params
	sk     SecretKey

	// rs is the coefficient-domain secret, reversed, for responses. It is
	// built on first use, so a session that connects pays no transform.
	rsOnce sync.Once
	rs     []uint64
}

// NewDecryptor returns a decryptor for the given secret key.
func NewDecryptor(p Params, sk SecretKey) *Decryptor {
	return &Decryptor{params: p, sk: sk}
}

// roundPhaseToT rounds a decrypted phase to message space:
// m_i = round(T * phase_i / Q) mod T.
func roundPhaseToT(out, phase []uint64, t uint64) {
	halfQhi, halfQlo := uint64(0), ringq.Q/2
	for i, c := range phase {
		hi, lo := bits.Mul64(t, c)
		lo, carry := bits.Add64(lo, halfQlo, 0)
		hi += halfQhi + carry
		q, _ := bits.Div64(hi, lo, ringq.Q)
		out[i] = q % t
	}
}

// DecryptCoeffsBatch decrypts many ciphertexts at once, computing every
// phase first and running the inverse transforms through
// ringq.InverseBatch. Output is bit-identical to sequential DecryptCoeffs
// calls, the test file's reference (decryption is deterministic).
func (d *Decryptor) DecryptCoeffsBatch(cts []Ciphertext) [][]uint64 {
	p := d.params
	n := p.N
	out := make([][]uint64, len(cts))
	if len(cts) == 0 {
		return out
	}
	phases := make([][]uint64, len(cts))
	for i, ct := range cts {
		phase := getScratch(n)
		ringq.MulInto(phase, ct.c1, d.sk.s)
		ringq.AddInto(phase, phase, ct.c0)
		phases[i] = phase
	}
	p.ntt.InverseBatch(phases)
	for i, phase := range phases {
		out[i] = make([]uint64, n)
		roundPhaseToT(out[i], phase, p.T)
		putScratch(phase)
	}
	return out
}

// SubPlainInto subtracts pt (prepared with EncodeAddNTT: Delta-scaled, NTT
// domain) from ct in place. Used by the matvec hot path, where the
// accumulator is dead after the subtraction.
func SubPlainInto(ct *Ciphertext, pt Plaintext) {
	ringq.SubInto(ct.c0, ct.c0, pt.coeffs)
}

// AccumulateMulPlain accumulates ct*pt into acc in ringq's lazy domain —
// the fused kernel the packed matvec evaluator spends nearly all its time
// in. acc's residues may leave canonical form; Apply and Respond make them
// canonical once, after the last accumulation. ct and pt must be
// canonical.
func AccumulateMulPlain(acc *Ciphertext, ct Ciphertext, pt Plaintext) {
	ringq.MulAddLazyInto(acc.c0, ct.c0, pt.coeffs)
	ringq.MulAddLazyInto(acc.c1, ct.c1, pt.coeffs)
}

// canonicalizeCt maps a lazily accumulated ciphertext back to canonical
// residues in place.
func canonicalizeCt(ct *Ciphertext) {
	ringq.Canonicalize(ct.c0)
	ringq.Canonicalize(ct.c1)
}

// ZeroCiphertext returns a transparent encryption of zero (no randomness).
// Used as the accumulator seed in homomorphic sums.
func ZeroCiphertext(p Params) Ciphertext {
	return Ciphertext{c0: make([]uint64, p.N), c1: make([]uint64, p.N)}
}
