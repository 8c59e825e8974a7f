package ringq

// Poly is a dense polynomial of fixed degree over Z_q. Whether the
// coefficients are in the coefficient or NTT domain is tracked by the caller
// (the bfv package keeps ciphertext polynomials permanently in the NTT
// domain and only leaves it for encoding and decoding).
type Poly struct {
	Coeffs []uint64
}

// Copy returns a deep copy of p.
func (p Poly) Copy() Poly {
	c := make([]uint64, len(p.Coeffs))
	copy(c, p.Coeffs)
	return Poly{Coeffs: c}
}

// Equal reports whether two polynomials have identical coefficients.
func (p Poly) Equal(o Poly) bool {
	if len(p.Coeffs) != len(o.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		if p.Coeffs[i] != o.Coeffs[i] {
			return false
		}
	}
	return true
}

// AddInto sets out = a + b elementwise. All slices must share a length.
func AddInto(out, a, b []uint64) {
	for i := range out {
		out[i] = Add(a[i], b[i])
	}
}

// SubInto sets out = a - b elementwise.
func SubInto(out, a, b []uint64) {
	for i := range out {
		out[i] = Sub(a[i], b[i])
	}
}

// MulInto sets out = a * b elementwise (Hadamard product; this is ring
// multiplication when a and b are in the NTT domain).
func MulInto(out, a, b []uint64) {
	for i := range out {
		out[i] = Mul(a[i], b[i])
	}
}

// NegacyclicMulNaive returns the negacyclic (mod X^N+1) product of a and b
// by schoolbook multiplication. It is O(N^2) and exists as the reference
// implementation the NTT is tested against.
func NegacyclicMulNaive(a, b []uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			k := i + j
			p := Mul(a[i], b[j])
			if k < n {
				out[k] = Add(out[k], p)
			} else {
				out[k-n] = Sub(out[k-n], p)
			}
		}
	}
	return out
}
