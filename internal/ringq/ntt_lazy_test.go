package ringq

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// allDegrees is every ring degree the BFV substrate can request
// (bfv.MaxRingDegree = 1<<17), so the lazy kernels are pinned against the
// reference across the full supported range.
var allDegrees = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
	4096, 8192, 16384, 32768, 65536, 131072}

func randPoly(rng *rand.Rand, n int) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % Q
	}
	return a
}

// edgePolys returns adversarial canonical inputs: extremes that stress the
// lazy-domain carry/borrow folds.
func edgePolys(n int) [][]uint64 {
	zero := make([]uint64, n)
	max := make([]uint64, n)
	alt := make([]uint64, n)
	for i := range max {
		max[i] = Q - 1
		if i&1 == 0 {
			alt[i] = Q - 1
		}
	}
	return [][]uint64{zero, max, alt}
}

func TestForwardMatchesRef(t *testing.T) {
	for _, n := range allDegrees {
		ntt := NewNTT(n)
		rng := rand.New(rand.NewSource(int64(n)))
		trials := 4
		if n >= 16384 {
			trials = 1
		}
		polys := edgePolys(n)
		for i := 0; i < trials; i++ {
			polys = append(polys, randPoly(rng, n))
		}
		for pi, a := range polys {
			ref := append([]uint64(nil), a...)
			got := append([]uint64(nil), a...)
			ntt.ForwardRef(ref)
			ntt.Forward(got)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("n=%d poly=%d: Forward mismatch at %d: got %d want %d", n, pi, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestInverseMatchesRef(t *testing.T) {
	for _, n := range allDegrees {
		ntt := NewNTT(n)
		rng := rand.New(rand.NewSource(int64(n) + 1))
		trials := 4
		if n >= 16384 {
			trials = 1
		}
		polys := edgePolys(n)
		for i := 0; i < trials; i++ {
			polys = append(polys, randPoly(rng, n))
		}
		for pi, a := range polys {
			ref := append([]uint64(nil), a...)
			got := append([]uint64(nil), a...)
			ntt.InverseRef(ref)
			ntt.Inverse(got)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("n=%d poly=%d: Inverse mismatch at %d: got %d want %d", n, pi, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	// 17 polys: more than GOMAXPROCS on typical runners, not a multiple of
	// it, so the work-stealing counter's tail is exercised. Run under -race
	// this also checks the workers never touch each other's slices.
	const count = 17
	for _, n := range []int{1, 2, 64, 4096} {
		ntt := NewNTT(n)
		rng := rand.New(rand.NewSource(int64(n) + 2))
		seq := make([][]uint64, count)
		bat := make([][]uint64, count)
		for i := range seq {
			p := randPoly(rng, n)
			seq[i] = append([]uint64(nil), p...)
			bat[i] = append([]uint64(nil), p...)
		}
		for _, p := range seq {
			ntt.Forward(p)
		}
		ntt.ForwardBatch(bat)
		for i := range seq {
			for j := range seq[i] {
				if bat[i][j] != seq[i][j] {
					t.Fatalf("n=%d: ForwardBatch poly %d mismatch at %d", n, i, j)
				}
			}
		}
		for _, p := range seq {
			ntt.Inverse(p)
		}
		ntt.InverseBatch(bat)
		for i := range seq {
			for j := range seq[i] {
				if bat[i][j] != seq[i][j] {
					t.Fatalf("n=%d: InverseBatch poly %d mismatch at %d", n, i, j)
				}
			}
		}
	}
}

func TestMulShoupLazyMatchesBig(t *testing.T) {
	f := func(v, w uint64) bool {
		w %= Q // twiddles are canonical; v may be any lazy representative
		want := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }, v%Q, w)
		return canonical(mulShoupLazy(v, w, shoupConst(w))) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Extremes: lazy v at the top of the domain, w at the field edges.
	for _, v := range []uint64{0, 1, Q - 1, Q, ^uint64(0), epsilon, 1 << 63} {
		for _, w := range []uint64{0, 1, 2, epsilon, Q - 1, Q - 2, 1 << 32} {
			want := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }, v%Q, w)
			if got := canonical(mulShoupLazy(v, w, shoupConst(w))); got != want {
				t.Fatalf("mulShoupLazy(%#x, %#x) = %d, want %d", v, w, got, want)
			}
		}
	}
}

func TestLazyAddSubMatchBig(t *testing.T) {
	f := func(a, b uint64) bool {
		wantAdd := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) }, a%Q, b%Q)
		wantSub := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }, a%Q, b%Q)
		return canonical(addLazy(a, b)) == wantAdd && canonical(subLazy(a, b)) == wantSub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{0, 1, Q - 1, Q, ^uint64(0), epsilon} {
		for _, b := range []uint64{0, 1, Q - 1, Q, ^uint64(0), epsilon} {
			wantAdd := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) }, a%Q, b%Q)
			if got := canonical(addLazy(a, b)); got != wantAdd {
				t.Fatalf("addLazy(%#x, %#x) = %d, want %d", a, b, got, wantAdd)
			}
			wantSub := bigMod(func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }, a%Q, b%Q)
			if got := canonical(subLazy(a, b)); got != wantSub {
				t.Fatalf("subLazy(%#x, %#x) = %d, want %d", a, b, got, wantSub)
			}
		}
	}
}

func TestReduce128LazyMatchesReduce128(t *testing.T) {
	f := func(hi, lo uint64) bool {
		return canonical(reduce128Lazy(hi, lo)) == reduce128(hi, lo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAddLazyIntoMatchesReduced(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 256
	acc := make([]uint64, n)
	want := make([]uint64, n)
	for round := 0; round < 8; round++ {
		a := randPoly(rng, n)
		b := randPoly(rng, n)
		MulAddLazyInto(acc, a, b)
		for i := range want {
			want[i] = Add(want[i], Mul(a[i], b[i]))
		}
	}
	Canonicalize(acc)
	for i := range want {
		if acc[i] != want[i] {
			t.Fatalf("lazy accumulate mismatch at %d: got %d want %d", i, acc[i], want[i])
		}
	}
}

func TestMulAddLazyIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulAddLazyInto with mismatched lengths should panic")
		}
	}()
	MulAddLazyInto(make([]uint64, 4), make([]uint64, 4), make([]uint64, 3))
}

// BenchmarkNTTForward compares the retained reference kernel against the
// Shoup/lazy kernel and the batch entry point at N=4096. The ref case is
// also the CI perf gate's calibration op (frozen code, see cmd/benchjson).
func BenchmarkNTTForward(b *testing.B) {
	const n = 4096
	ntt := NewNTT(n)
	rng := rand.New(rand.NewSource(1))
	src := randPoly(rng, n)

	b.Run(fmt.Sprintf("ref/n=%d", n), func(b *testing.B) {
		a := append([]uint64(nil), src...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ntt.ForwardRef(a)
		}
	})
	b.Run(fmt.Sprintf("lazy/n=%d", n), func(b *testing.B) {
		a := append([]uint64(nil), src...)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ntt.Forward(a)
		}
	})
	b.Run(fmt.Sprintf("batch32/n=%d", n), func(b *testing.B) {
		polys := make([][]uint64, 32)
		for i := range polys {
			polys[i] = append([]uint64(nil), src...)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ntt.ForwardBatch(polys)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(polys)), "ns/poly")
	})
}

func BenchmarkNTTInverse(b *testing.B) {
	const n = 4096
	ntt := NewNTT(n)
	rng := rand.New(rand.NewSource(2))
	src := randPoly(rng, n)

	b.Run(fmt.Sprintf("ref/n=%d", n), func(b *testing.B) {
		a := append([]uint64(nil), src...)
		for i := 0; i < b.N; i++ {
			ntt.InverseRef(a)
		}
	})
	b.Run(fmt.Sprintf("lazy/n=%d", n), func(b *testing.B) {
		a := append([]uint64(nil), src...)
		for i := 0; i < b.N; i++ {
			ntt.Inverse(a)
		}
	})
}
