package ss

import (
	"math/rand"
	"testing"
	"testing/quick"

	"privinf/internal/field"
)

type seededReader struct{ rng *rand.Rand }

func newSeeded(seed int64) *seededReader {
	return &seededReader{rng: rand.New(rand.NewSource(seed))}
}

func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Intn(256))
	}
	return len(p), nil
}

func TestShareReconstruct(t *testing.T) {
	sh := New(field.New(field.P17), newSeeded(1))
	check := func(vals []uint16) bool {
		x := make([]uint64, len(vals))
		for i, v := range vals {
			x[i] = uint64(v) % sh.F.P()
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
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSharesLookRandom(t *testing.T) {
	// A single share must not reveal the secret: sharing the zero vector
	// twice should produce different shares.
	sh := New(field.New(field.P17), newSeeded(2))
	x := make([]uint64, 64)
	a1, _ := sh.Share(x)
	b1, _ := sh.Share(x)
	same := 0
	for i := range a1 {
		if a1[i] == b1[i] {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("%d/64 share positions identical across independent sharings", same)
	}
}

func TestLinearHomomorphism(t *testing.T) {
	sh := New(field.New(field.P20), newSeeded(3))
	f := sh.F
	x := sh.RandomVec(32)
	y := sh.RandomVec(32)
	x1, x2 := sh.Share(x)
	y1, y2 := sh.Share(y)

	// Shares of x+y = share-wise sums.
	z1 := make([]uint64, 32)
	z2 := make([]uint64, 32)
	f.AddVec(z1, x1, y1)
	f.AddVec(z2, x2, y2)
	got := sh.Reconstruct(z1, z2)
	for i := range x {
		if got[i] != f.Add(x[i], y[i]) {
			t.Fatalf("index %d: additive homomorphism broken", i)
		}
	}
}
