package nn

import (
	"math"
	"math/rand"
	"testing"

	"privinf/internal/field"
)

// TestQuantizedTracksFloat: the quantized forward pass (the one the private
// protocol computes bit-exactly) must track the real-valued reference on a
// finely quantized model. The demo networks use Frac=4 — coarse enough that
// truncation floor-bias dominates small outputs, which is fine for protocol
// correctness (bit-exactness is against the quantized model) but not for
// value tracking; this test uses Frac=8 over the wider P31 field, where
// DELPHI-style deployments actually operate.
func TestQuantizedTracksFloat(t *testing.T) {
	f := field.New(field.P31)
	const frac = 8
	wrng := rand.New(rand.NewSource(31))
	b := NewModelBuilder(f, frac, 1, 8)
	b.AddFC(32, wrng, 16).AddReLU()
	b.AddFC(10, wrng, 16)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	agree := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		xf := make([]float64, m.InputLen())
		for i := range xf {
			xf[i] = rng.Float64() // inputs in [0, 1)
		}
		xq := make([]uint64, len(xf))
		for i, v := range xf {
			xq[i] = field.FixedPoint{F: f, Frac: m.Frac}.Encode(v)
		}

		qOut := m.Forward(xq)
		fOut := m.ForwardFloat(xf)

		// Compare on the common scale: quantized outputs carry
		// 2^(2*Frac) (product scale of the final linear layer).
		scale := float64(int64(1) << (2 * m.Frac))
		maxAbs, maxErr := 0.0, 0.0
		for i := range fOut {
			q := float64(f.ToInt64(qOut[i])) / scale
			if a := math.Abs(fOut[i]); a > maxAbs {
				maxAbs = a
			}
			if e := math.Abs(q - fOut[i]); e > maxErr {
				maxErr = e
			}
		}
		// Fixed-point error should be small relative to the signal.
		if maxAbs > 0.05 && maxErr > 0.15*maxAbs {
			t.Errorf("trial %d: quantization error %.4f vs signal %.4f", trial, maxErr, maxAbs)
		}
		best := 0
		for i, v := range fOut {
			if v > fOut[best] {
				best = i
			}
		}
		if Argmax(f, qOut) == best {
			agree++
		}
	}
	// Class agreement should be the norm (near-equal logits may flip).
	if agree < trials*3/4 {
		t.Errorf("quantized/float argmax agree on only %d/%d trials", agree, trials)
	}
}

func TestForwardFloatIdentityModel(t *testing.T) {
	// Identity weights at scale 2^Frac: w_q = 2^Frac encodes 1.0.
	f := field.New(field.P17)
	const frac = 4
	one := f.FromInt64(1 << frac)
	id := LinearSpec{W: [][]uint64{{one}}, B: []uint64{0}}
	m := &Lowered{F: f, Frac: frac, Linear: []LinearSpec{id, id}, Shifts: []uint{frac}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	out := m.ForwardFloat([]float64{0.5})
	if math.Abs(out[0]-0.5) > 1e-12 {
		t.Errorf("identity float forward: %f, want 0.5", out[0])
	}
	// Negative input is clamped by the ReLU.
	out = m.ForwardFloat([]float64{-0.5})
	if out[0] != 0 {
		t.Errorf("ReLU float forward: %f, want 0", out[0])
	}
}
