package nn

// Float reference inference: evaluates the lowered network in real
// arithmetic, decoding the quantized weights back to their real values.
// This is the oracle for quantization-fidelity checks — the private
// protocol is bit-exact against the quantized Forward, and the quantized
// Forward should track this float reference closely enough to preserve
// predictions.

// decodeWeight maps a centered field element at scale 2^Frac to its real
// value.
func (m *Lowered) decodeWeight(w uint64) float64 {
	return float64(m.F.ToInt64(w)) / float64(int64(1)<<m.Frac)
}

// ForwardFloat runs real-valued inference on a real-valued input (the same
// input Forward would receive after fixed-point encoding, but unquantized).
// Pooling that was folded into truncation appears here as the matching
// power-of-two rescale, so outputs are comparable to
// Forward(...)/2^(Frac + accumulated pool bits).
func (m *Lowered) ForwardFloat(x []float64) []float64 {
	cur := append([]float64(nil), x...)
	for i, lin := range m.Linear {
		out := make([]float64, lin.Out())
		for r := range lin.W {
			acc := m.decodeWeight(lin.B[r]) / float64(int64(1)<<m.Frac)
			for c, wv := range lin.W[r] {
				acc += m.decodeWeight(wv) * cur[c]
			}
			out[r] = acc
		}
		if i == len(m.Linear)-1 {
			return out
		}
		// ReLU, then the same extra rescale the truncation applies
		// beyond the standard Frac bits (pooling compensation).
		extra := float64(int64(1) << (m.Shifts[i] - m.Frac))
		for j, v := range out {
			if v < 0 {
				v = 0
			}
			out[j] = v / extra
		}
		cur = out
	}
	return cur
}
