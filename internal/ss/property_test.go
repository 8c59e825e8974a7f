package ss

import (
	"testing"
	"testing/quick"

	"privinf/internal/field"
)

// Property tests on the share algebra over multiple fields.

func TestShareAlgebraProperties(t *testing.T) {
	for _, p := range []uint64{field.P17, field.P20, field.P41} {
		f := field.New(p)
		sh := New(f, newSeeded(int64(p)))

		// x shared then reconstructed is x; shares of zero sum to zero.
		roundTrip := func(raw []uint64) bool {
			x := make([]uint64, len(raw))
			for i, v := range raw {
				x[i] = v % p
			}
			s1, s2 := sh.Share(x)
			got := sh.Reconstruct(s1, s2)
			for i := range x {
				if got[i] != x[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(roundTrip, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("p=%d round trip: %v", p, err)
		}

		// Scalar multiplication distributes over shares.
		scalar := func(v, k uint64) bool {
			v, k = v%p, k%p
			s1, s2 := sh.Share([]uint64{v})
			lhs := f.Mul(k, f.Add(s1[0], s2[0]))
			rhs := f.Add(f.Mul(k, s1[0]), f.Mul(k, s2[0]))
			return lhs == rhs && lhs == f.Mul(k, v)
		}
		if err := quick.Check(scalar, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("p=%d scalar: %v", p, err)
		}
	}
}
