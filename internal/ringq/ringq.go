// Package ringq implements arithmetic in Z_q and in the negacyclic
// polynomial ring R_q = Z_q[X]/(X^N + 1) for the Goldilocks prime
// q = 2^64 - 2^32 + 1.
//
// The Goldilocks prime admits a branch-light 128-to-64-bit reduction and has
// 2-adicity 32 (q-1 = 2^32 * (2^32 - 1)), so it supports negacyclic NTTs for
// every power-of-two ring degree used by the BFV substrate (N <= 2^16 here).
// All exported functions are safe for concurrent use; the types carry no
// hidden state besides precomputed constants.
package ringq

import "math/bits"

// Q is the Goldilocks prime 2^64 - 2^32 + 1.
const Q uint64 = 0xFFFFFFFF00000001

// epsilon = 2^32 - 1 = 2^64 mod Q. Used by the fast reduction.
const epsilon uint64 = 0xFFFFFFFF

// Add returns (a + b) mod Q. Inputs must be < Q.
func Add(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 || s >= Q {
		s -= Q
	}
	return s
}

// Sub returns (a - b) mod Q. Inputs must be < Q.
func Sub(a, b uint64) uint64 {
	d, borrow := bits.Sub64(a, b, 0)
	if borrow != 0 {
		d += Q
	}
	return d
}

// Neg returns (-a) mod Q. Input must be < Q.
func Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return Q - a
}

// Reduce reduces an arbitrary uint64 into [0, Q).
func Reduce(a uint64) uint64 {
	if a >= Q {
		a -= Q
	}
	return a
}

// reduce128 reduces hi*2^64 + lo modulo Q using the identities
// 2^64 ≡ 2^32 - 1 and 2^96 ≡ -1 (mod Q).
func reduce128(hi, lo uint64) uint64 {
	hi0 := hi & 0xFFFFFFFF
	hi1 := hi >> 32

	// t0 = lo - hi1 (mod Q)
	t0, borrow := bits.Sub64(lo, hi1, 0)
	if borrow != 0 {
		t0 -= epsilon // equivalent to adding Q modulo 2^64
	}

	// t1 = hi0 * (2^32 - 1); hi0 < 2^32 so this cannot overflow.
	t1 := (hi0 << 32) - hi0

	res, carry := bits.Add64(t0, t1, 0)
	if carry != 0 {
		res += epsilon // equivalent to subtracting Q modulo 2^64
	}
	if res >= Q {
		res -= Q
	}
	return res
}

// Mul returns (a * b) mod Q. Inputs must be < Q.
func Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return reduce128(hi, lo)
}

// Exp returns a^e mod Q by square-and-multiply.
func Exp(a, e uint64) uint64 {
	result := uint64(1)
	base := Reduce(a)
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a mod Q. It panics if a == 0,
// which indicates a programming error in the caller: zero has no inverse.
func Inv(a uint64) uint64 {
	if a == 0 {
		panic("ringq: inverse of zero")
	}
	// Q is prime, so a^(Q-2) = a^-1.
	return Exp(a, Q-2)
}

// generator is a generator of the multiplicative group Z_Q^*.
// 7 is the canonical generator for the Goldilocks field.
const generator uint64 = 7

// PrimitiveRoot returns a primitive n-th root of unity mod Q.
// n must be a power of two dividing 2^32. It panics otherwise; root-of-unity
// orders are fixed at parameter-selection time, so a bad n is a bug.
func PrimitiveRoot(n uint64) uint64 {
	if n == 0 || n&(n-1) != 0 || n > 1<<32 {
		panic("ringq: root order must be a power of two <= 2^32")
	}
	// ord(g) = Q-1 = 2^32 * (2^32 - 1); g^((Q-1)/n) has order exactly n.
	return Exp(generator, (Q-1)/n)
}
