package boolcirc

import (
	"encoding"
	"testing"

	"privinf/internal/bin/bintest"
)

// FuzzCircuitUnmarshal drives the circuit decoder with attacker-controlled
// bytes, seeded with a valid circuit and its truncations: it either errors
// or yields a circuit that re-marshals to exactly the input, and never
// panics. The seed is a few gates, not a ReLU, so the engine's minimizer
// spends the budget mutating rather than shrinking kilobytes.
func FuzzCircuitUnmarshal(f *testing.F) {
	b := NewBuilder(3)
	x, y, z := b.Input(0), b.Input(1), b.Input(2)
	b.SetOutputs([]int{b.Or(b.And(x, y), b.Not(z)), b.Xor(x, b.Zero())})
	valid, err := b.Finish().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	bintest.FuzzRoundTrip(f, valid, func(data []byte) (encoding.BinaryMarshaler, error) {
		c := new(Circuit)
		return c, c.UnmarshalBinary(data)
	})
}
