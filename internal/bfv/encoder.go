package bfv

import "privinf/internal/ringq"

// Encoder converts between application values (field elements mod T) and
// ring plaintexts in the representations the homomorphic operators expect.
type Encoder struct {
	params Params
}

// NewEncoder returns an encoder for the given parameters.
func NewEncoder(p Params) *Encoder { return &Encoder{params: p} }

// EncodeMulNTT prepares a plaintext multiplicand for AccumulateMulPlain:
// coefficients are lifted to Z_q using the centered representation (values
// above T/2 map to negatives), which halves the worst-case noise growth,
// then transformed to the NTT domain.
func (e *Encoder) EncodeMulNTT(m []uint64) Plaintext {
	p := e.params
	out := make([]uint64, p.N)
	half := p.T / 2
	for i, v := range m {
		if v >= p.T {
			panic("bfv: plaintext coefficient out of range")
		}
		if v > half {
			out[i] = ringq.Q - (p.T - v)
		} else {
			out[i] = v
		}
	}
	p.ntt.Forward(out)
	return Plaintext{coeffs: out}
}

// EncodeAddNTT prepares a plaintext summand for SubPlainInto:
// coefficients are scaled by Delta and transformed to the NTT domain.
func (e *Encoder) EncodeAddNTT(m []uint64) Plaintext {
	p := e.params
	out := make([]uint64, p.N)
	for i, v := range m {
		if v >= p.T {
			panic("bfv: plaintext coefficient out of range")
		}
		out[i] = ringq.Mul(v, p.delta)
	}
	p.ntt.Forward(out)
	return Plaintext{coeffs: out}
}
