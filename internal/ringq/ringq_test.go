package ringq

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var bigQ = new(big.Int).SetUint64(Q)

func bigMod(op func(a, b *big.Int) *big.Int, a, b uint64) uint64 {
	x := new(big.Int).SetUint64(a)
	y := new(big.Int).SetUint64(b)
	r := op(x, y)
	r.Mod(r, bigQ)
	return r.Uint64()
}

func TestAddMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = a%Q, b%Q
		want := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) }, a, b)
		return Add(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = a%Q, b%Q
		want := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }, a, b)
		return Sub(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulMatchesBig(t *testing.T) {
	f := func(a, b uint64) bool {
		a, b = a%Q, b%Q
		want := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }, a, b)
		return Mul(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulEdgeCases(t *testing.T) {
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {Q - 1, Q - 1}, {Q - 1, 1}, {Q - 1, 2},
		{1 << 32, 1 << 32}, {Q - 1, Q - 2}, {epsilon, epsilon},
	}
	for _, c := range cases {
		want := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }, c[0], c[1])
		if got := Mul(c[0], c[1]); got != want {
			t.Errorf("Mul(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestNegAddIdentity(t *testing.T) {
	f := func(a uint64) bool {
		a %= Q
		return Add(a, Neg(a)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInv(t *testing.T) {
	f := func(a uint64) bool {
		a %= Q
		if a == 0 {
			a = 1
		}
		return Mul(a, Inv(a)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) should panic")
		}
	}()
	Inv(0)
}

func TestExp(t *testing.T) {
	if got := Exp(2, 10); got != 1024 {
		t.Fatalf("Exp(2,10) = %d, want 1024", got)
	}
	if got := Exp(5, 0); got != 1 {
		t.Fatalf("Exp(5,0) = %d, want 1", got)
	}
	// Fermat: a^(Q-1) = 1 for a != 0.
	for _, a := range []uint64{2, 3, 7, Q - 1, 123456789} {
		if got := Exp(a, Q-1); got != 1 {
			t.Fatalf("Exp(%d, Q-1) = %d, want 1", a, got)
		}
	}
}

func TestPrimitiveRootOrders(t *testing.T) {
	for _, n := range []uint64{2, 4, 8, 1024, 8192, 1 << 20} {
		r := PrimitiveRoot(n)
		if Exp(r, n) != 1 {
			t.Fatalf("root of order %d: r^n != 1", n)
		}
		if Exp(r, n/2) == 1 {
			t.Fatalf("root of order %d is not primitive", n)
		}
	}
}

func TestPrimitiveRootBadOrderPanics(t *testing.T) {
	for _, n := range []uint64{0, 3, 6, 1 << 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PrimitiveRoot(%d) should panic", n)
				}
			}()
			PrimitiveRoot(n)
		}()
	}
}

func TestNTTRoundTrip(t *testing.T) {
	for _, n := range []int{8, 64, 256, 4096} {
		ntt := NewNTT(n)
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % Q
		}
		b := append([]uint64(nil), a...)
		ntt.Forward(b)
		ntt.Inverse(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: round trip mismatch at %d: %d != %d", n, i, a[i], b[i])
			}
		}
	}
}

func TestNTTMulMatchesNaive(t *testing.T) {
	for _, n := range []int{8, 32, 128} {
		ntt := NewNTT(n)
		rng := rand.New(rand.NewSource(7))
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % Q
			b[i] = rng.Uint64() % Q
		}
		want := NegacyclicMulNaive(a, b)

		fa := append([]uint64(nil), a...)
		fb := append([]uint64(nil), b...)
		ntt.Forward(fa)
		ntt.Forward(fb)
		got := make([]uint64, n)
		MulInto(got, fa, fb)
		ntt.Inverse(got)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: NTT mul mismatch at %d: %d != %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestNTTNegacyclicWraparound(t *testing.T) {
	// X^(N-1) * X = X^N = -1 in R_q, so the product must be Q-1 at coeff 0.
	n := 16
	ntt := NewNTT(n)
	a := make([]uint64, n)
	b := make([]uint64, n)
	a[n-1] = 1
	b[1] = 1
	ntt.Forward(a)
	ntt.Forward(b)
	out := make([]uint64, n)
	MulInto(out, a, b)
	ntt.Inverse(out)
	if out[0] != Q-1 {
		t.Fatalf("X^(N-1)*X coeff 0 = %d, want Q-1", out[0])
	}
	for i := 1; i < n; i++ {
		if out[i] != 0 {
			t.Fatalf("coeff %d = %d, want 0", i, out[i])
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	n := 64
	ntt := NewNTT(n)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % Q
			b[i] = rng.Uint64() % Q
		}
		sum := make([]uint64, n)
		AddInto(sum, a, b)
		ntt.Forward(sum)

		ntt.Forward(a)
		ntt.Forward(b)
		sum2 := make([]uint64, n)
		AddInto(sum2, a, b)
		for i := range sum {
			if sum[i] != sum2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNTTBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewNTT(3) should panic")
		}
	}()
	NewNTT(3)
}

func TestNTTLengthMismatchPanics(t *testing.T) {
	ntt := NewNTT(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong length should panic")
		}
	}()
	ntt.Forward(make([]uint64, 4))
}

func TestPolyCopyEqual(t *testing.T) {
	p := Poly{Coeffs: make([]uint64, 8)}
	p.Coeffs[3] = 42
	c := p.Copy()
	if !p.Equal(c) {
		t.Fatal("copy should equal original")
	}
	c.Coeffs[3] = 7
	if p.Equal(c) {
		t.Fatal("mutating copy must not affect original")
	}
	if p.Equal(Poly{Coeffs: make([]uint64, 4)}) {
		t.Fatal("different lengths must not be equal")
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := uint64(0x123456789abcdef), uint64(0xfedcba987654321)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y)
	}
	_ = x
}

func BenchmarkNTTForward4096(b *testing.B) {
	ntt := NewNTT(4096)
	a := make([]uint64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range a {
		a[i] = rng.Uint64() % Q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ntt.Forward(a)
	}
}
