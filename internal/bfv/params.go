// Package bfv implements a BFV-style somewhat-homomorphic encryption scheme
// over the ring R_q = Z_q[X]/(X^N+1) with the Goldilocks prime
// q = 2^64 - 2^32 + 1, supporting exactly the operations DELPHI-style hybrid
// PI protocols need in their offline phase: encryption, decryption,
// ciphertext-ciphertext addition, plaintext addition, and
// ciphertext-plaintext multiplication. No relinearization or rotation keys
// are required: linear layers are computed with Cheetah-style coefficient
// packing (see matvec.go), which needs only ct×pt products and additions.
//
// Noise budget (single 64-bit modulus). Fresh public-key encryption noise is
// bounded by |e1| + |u·e| + |s·e2| ≤ B + 2·N·B with ternary u, s and errors
// bounded by B = 2·eta (centered binomial, eta = 2), i.e. about 2^14 for
// N = 4096. A plaintext multiplication grows noise by at most N·t/2 (t the
// plaintext modulus, centered). Decryption is correct while noise < q/(2t).
// With t = 65537 (field.P17) the worst-case headroom is
// 64 - 17 - 1 - (14 + 12 + 16) = -4 bits worst-case but ~+8 bits in the
// average case (noise terms are zero-centered and concentrate around
// sqrt(N)·sigma); with the small quantized weights real networks use
// (|w| ≤ 2^8) headroom exceeds 20 bits. The protocol layer restricts
// plaintext multiplications to one level, matching DELPHI.
//
// Offline transport (wire v10). The protocol never computes on a ciphertext
// after it crosses the wire, so both directions send only what decryption
// needs. An upload is a secret-key encryption whose c1 = a is expanded by
// AES-CTR from a fresh 16-byte seed: c0 = −a·s + Δm + e, sent as seed ‖ c0.
// Its noise is e alone (|e| ≤ 2), far below the public-key bound above, and
// its security is plain RLWE with a public, pseudorandom a.
//
// A matvec response is switched from q to 2^k before it is sent. Write the
// coefficient-domain phase as c0 + c1·s = Δm + v + q·K for an integer
// polynomial K, with |v| the noise. The server sends c'_i = round(2^k·c_i/q)
// mod 2^k = 2^k·c_i/q + ε_i with |ε_i| ≤ 1/2, so
//
//	c'0 + c'1·s = (2^k/q)·(Δm + v) + ε0 + ε1·s   (mod 2^k)
//	            = (2^k/T)·m + (2^k/q)·v + E,
//	|E| ≤ |ε0| + N·|ε1|·|s|∞ + 2^k·T/q ≤ (N+1)/2 + 1/2 = (N+2)/2,
//
// where the last term is what Δ = ⌊q/T⌋ misses of q/T, times m < T, scaled
// by 2^k/q; it is below 1/2 whenever 2^k·T ≤ q/2, which holds for every
// T ≤ 2^22 at N = 4096 (k ≤ 37). The client decrypts by rounding
// T·phase/2^k, which is correct while the total error stays under 2^k/(2T).
// The width k is the least with 2^k ≥ 4·T·(N+2) (responseBits): then
// |E| ≤ 2^k/(8T), under half of that budget even when every coefficient of
// s is ±1, and the other half admits any pre-switch noise |v| < q/(4T), one
// bit of the budget above. For N = 4096 and T = field.P20, k = 34. The
// response carries all of c1 and c0 at the plan's read slots only, each at
// k bits, and the client decrypts it in the coefficient domain against a
// copy of s: Out·N word multiply-adds and no transform.
//
// This is a research artifact: parameters target correctness and protocol
// shape, not a production 128-bit security review.
package bfv

import (
	"fmt"
	"math/bits"
	"sync"

	"privinf/internal/ringq"
)

// Params fixes the scheme parameters. Construct with NewParams.
type Params struct {
	N int    // ring degree, a power of two
	T uint64 // plaintext modulus, a prime ≡ 1 mod 2N

	ntt   *ringq.NTT
	delta uint64 // floor(q / t), the plaintext scaling factor
}

// DefaultN is the ring degree used throughout the protocol layer. It matches
// the degree GAZELLE/DELPHI use for their packed linear layers.
const DefaultN = 4096

// MaxRingDegree bounds the ring degree NewParams accepts. Real HE parameter
// sets stop well short of this; the bound exists so degree fields read from
// untrusted bytes (welcomes, preambles and artifacts route through
// NewParams) cannot demand gigabyte NTT tables or overflow the
// primitive-root search before validation rejects them.
const MaxRingDegree = 1 << 17

// nttCache memoizes NTT twiddle tables by ring degree. Params construction
// is dominated by these tables (a primitive-root search plus two degree-N
// power tables); they depend only on N, are immutable after construction,
// and are already shared by every copy of a Params value, so handing the
// same tables to every caller is safe and makes repeated NewParams calls —
// one per handshake and per artifact load — O(1) after the first. Keying by N alone (not (N, T)) bounds the cache to the
// handful of power-of-two degrees under MaxRingDegree even though T is
// reachable from wire and artifact-file input.
var nttCache sync.Map // int -> *ringq.NTT

// NewParams validates and precomputes scheme parameters.
func NewParams(n int, t uint64) (Params, error) {
	if n <= 0 || n&(n-1) != 0 {
		return Params{}, fmt.Errorf("bfv: ring degree %d is not a power of two", n)
	}
	if n > MaxRingDegree {
		return Params{}, fmt.Errorf("bfv: ring degree %d exceeds the supported maximum %d", n, MaxRingDegree)
	}
	if t < 2 || t >= ringq.Q {
		return Params{}, fmt.Errorf("bfv: plaintext modulus %d out of range", t)
	}
	if (t-1)%uint64(2*n) != 0 {
		return Params{}, fmt.Errorf("bfv: plaintext modulus %d is not ≡ 1 mod 2N; batching impossible", t)
	}
	if t > 1<<22 {
		return Params{}, fmt.Errorf("bfv: plaintext modulus %d exceeds the 2^22 noise budget for a single 64-bit ciphertext modulus", t)
	}
	ntt, ok := nttCache.Load(n)
	if !ok {
		ntt, _ = nttCache.LoadOrStore(n, ringq.NewNTT(n))
	}
	return Params{
		N:     n,
		T:     t,
		ntt:   ntt.(*ringq.NTT),
		delta: ringq.Q / t,
	}, nil
}

// Delta returns floor(q/t).
func (p Params) Delta() uint64 { return p.delta }

// NTT exposes the ring transform (used by the encoders).
func (p Params) NTT() *ringq.NTT { return p.ntt }

// responseBits returns k, the width a matvec response is switched to: the
// least k with 2^k ≥ 4·T·(N+2) (see the package doc). NewParams bounds T
// and N, so k ≤ 42.
func (p Params) responseBits() int { return bits.Len64(4*p.T*uint64(p.N+2) - 1) }
