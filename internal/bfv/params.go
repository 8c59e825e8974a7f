// Package bfv implements a BFV-style somewhat-homomorphic encryption scheme
// over the ring R_q = Z_q[X]/(X^N+1) with the Goldilocks prime
// q = 2^64 - 2^32 + 1, supporting exactly the operations DELPHI-style hybrid
// PI protocols need in their offline phase: encryption, decryption,
// ciphertext-ciphertext addition, plaintext addition, and
// ciphertext-plaintext multiplication. No relinearization or rotation keys
// are required: linear layers are computed with Cheetah-style coefficient
// packing (see matvec.go), which needs only ct×pt products and additions.
//
// Offline transport (wire v10). The protocol never computes on a ciphertext
// after it crosses the wire, so both directions send only what decryption
// needs. An upload is a secret-key encryption whose c1 = a is expanded by
// AES-CTR from a fresh 16-byte seed: c0 = −a·s + Δm + e, sent as seed ‖ c0.
// Its security is plain RLWE with a public, pseudorandom a. The public key
// travels the same way (wire v13): KeyGen draws s, then the seed its a
// expands from, then e, and b = −(a·s + e) is sent as seed ‖ b.
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
// T·phase/2^k, which is correct while |(2^k/q)·v + E| < 2^k/(2T). The
// width k is the least with 2^k ≥ 4·T·(N+2) (responseBits), so |E| ≤
// 2^k/(8T). For N = 4096 and T = field.P20, k = 34. The response carries
// all of c1 and c0 at the plan's read slots only, each at k bits, and the
// client decrypts it in the coefficient domain against a copy of s: Out·N
// word multiply-adds and no transform.
//
// Noise budget. A response decrypts exactly while its pre-switch noise
// stays under A = q/(2T) − q·(N+2)/2^(k+1), the budget less the switch. Its
// terms, with ternary s and u, centered-binomial errors |e| ≤ 2, and
// ρ = q − Δ·T (the residue Δ misses: 121,933 ≈ 2^16.9 at P20, 1 at P17):
//
//   - Uploads: |e| ≤ 2.
//
//   - Matvec, at the read slot of row r of output ciphertext oc. The
//     products sum to Δ·P plus the uploads' e times the centered weights,
//     where P = W_r·x = m + T·K is the row's dot product over the integers,
//     |K| ≤ ‖W_r‖₁, and Δ·T·K ≡ −ρ·K (mod q); subtracting the mask can
//     wrap m once more, another ρ. The e terms run over every weight the
//     plaintexts of oc hold, whichever input ciphertext it multiplies, so
//
//     |v_mat| ≤ ρ·(‖W_r‖₁ + 1) + 2·Σ_{r' in oc} ‖W_r'‖₁.
//
//     Splitting a row over two input ciphertexts, as the byte-minimal plans
//     of the demo CNN's layers 0 and 1 do, adds no term: P is the same sum.
//     There (|w| ≤ 3, ‖W_r‖₁ ≤ 21 and ≤ 304 for the seeds the tests use,
//     128 and 32 rows a response) |v_mat| ≤ 2^21.4 and ≤ 2^25.2.
//
//   - Re-randomization (Respond): u·(b, a) + (e1, e2) adds
//     v_rr = −u·e + e2·s + e1, |v_rr| ≤ 2N + 2N + 2 = 4N + 2 ≈ 2^14.
//
//   - Flood: uniform in [−2^f, 2^f) at each read slot, f = ⌊log2 A⌋ − 1
//     (floodBits), so at least A/2 is left for the two terms above.
//
//   - Switch: |E| ≤ (N+2)/2, already taken out of A.
//
// So a product decrypts exactly while |v_mat| ≤ A − 2^f − (4N + 2). At
// N = 4096 and P20: A ≈ 2^43.1, f = 42, and the matvec may reach 2^42.2,
// 2^17 times what the demo CNN needs.
//
// Circuit privacy. Without re-randomization c1 of a response is Σ w·a over
// the client's own seeded a, so the client reads W from it. Respond adds
// u·(b, a) + (e1, e2) for a fresh ternary u: c1 becomes an RLWE sample
// under the secret u, pseudorandom to the client even though it knows s.
// What the client can still see is the noise of the phase at each read
// slot, v_mat + v_rr, which depends on W; the flood hides it up to the
// statistical distance between the uniform flood and its shift, at most
// (|v_mat| + |v_rr|)/2^(f+1) a slot. With 2^(f+1) = 2^43 that is ≤ 2^−17.8
// a slot on the demo CNN and ≤ 2^−11.2 summed over the 394 slots of one
// demo-CNN pre-compute (2^−19 and 2^−13.8 on the demo MLP): about 11 bits
// of statistical security an inference, not 40. This one-limb q has no
// room for more: a 40-bit flood over a 2^25 matvec needs 2^66 of budget.
// A second ringq limb, or a smaller T, is the way to 40 bits.
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

// responseBits returns k, the width a matvec response is switched to: the
// least k with 2^k ≥ 4·T·(N+2) (see the package doc). NewParams bounds T
// and N, so k ≤ 42.
func (p Params) responseBits() int { return bits.Len64(4*p.T*uint64(p.N+2) - 1) }

// budget returns A, the pre-switch noise a response decrypts under:
// ⌊q/(2T)⌋ less ⌈q·(N+2)/2^(k+1)⌉ (see the package doc). 2^k ≥ 4·T·(N+2)
// keeps the switch's share under a quarter of q/(2T).
func (p Params) budget() uint64 {
	hi, lo := bits.Mul64(ringq.Q, uint64(p.N+2))
	k := uint(p.responseBits()) + 1
	return ringq.Q/(2*p.T) - (hi<<(64-k) | lo>>k) - 1
}

// floodBits returns f: a response floods each read slot with a value
// uniform in [−2^f, 2^f), which leaves at least half the budget to the
// matvec and the re-randomization.
func (p Params) floodBits() int { return bits.Len64(p.budget()) - 2 }

// matvecNoiseLimit returns the largest matvec noise |v_mat| (package doc)
// a response still decrypts exactly under, after the re-randomization,
// the flood and the switch have taken their share: A − 2^f − (4N + 2).
func (p Params) matvecNoiseLimit() uint64 { return p.budget() - 1<<p.floodBits() - uint64(4*p.N+2) }
