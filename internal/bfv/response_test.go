package bfv

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"privinf/internal/field"
	"privinf/internal/ringq"
)

// TestResponseBits pins k for the protocol's parameter sets and checks it
// is the least width with 2^k ≥ 4·T·(N+2).
func TestResponseBits(t *testing.T) {
	for _, c := range []struct {
		n    int
		t    uint64
		want int
	}{
		{DefaultN, field.P20, 34},
		{DefaultN, field.P17, 31},
		{16, 65537, 23},
	} {
		p := mustParams(c.n, c.t)
		k := p.responseBits()
		bound := 4 * c.t * uint64(c.n+2)
		if k != c.want || uint64(1)<<k < bound || uint64(1)<<(k-1) >= bound {
			t.Errorf("N=%d T=%d: k = %d, want %d", c.n, c.t, k, c.want)
		}
	}
}

// TestResponsesMatchFullDecryption is the differential test of the offline
// download: over random plans — a partial last response, Chunk = N, several
// input chunks — decrypting the switched read slots gives exactly what the
// unswitched path gives, ExtractResult(DecryptCoeffsBatch(..)) after the
// mask is subtracted in the NTT domain.
func TestResponsesMatchFullDecryption(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	shapes := [][2]int{
		{7, 300},    // 3 rows a response: partial last response
		{5, 1024},   // Chunk = N, one row a response
		{3, 2500},   // Chunk = N, three input chunks
		{1, 1},      // one row, one coefficient
		{64, 16},    // every response full
		{200, 1024}, // RowsPer = 1 at Chunk = N
	}
	for i := 0; i < 6; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(80), 1 + rng.Intn(3000)})
	}
	for _, tv := range []uint64{field.P17, field.P20} {
		p := mustParams(1024, tv)
		sk, pk := KeyGen(p, newSeeded(int64(tv)))
		enc := NewEncryptor(p, pk, newSeeded(61))
		seeded := NewSeededEncryptor(p, sk, newSeeded(62))
		dec := NewDecryptor(p, sk)
		e := NewEncoder(p)
		for _, sh := range shapes {
			pl := PlanMatVec(p, sh[0], sh[1])
			// Quantized weights, |w| ≤ 255, as the protocol's models have.
			w := make([][]uint64, pl.Out)
			for r := range w {
				w[r] = make([]uint64, pl.In)
				for c := range w[r] {
					w[r][c] = (uint64(rng.Intn(511)) + tv - 255) % tv
				}
			}
			x := randomMessage(rng, p, pl.In)
			mask := randomMessage(rng, p, pl.Out)
			pts := pl.EncodeMatrix(e, w)
			// The public-key inputs the ladder encrypts and the seeded
			// uploads the protocol sends must both come out right.
			inputs := map[string][]Ciphertext{"public-key": pl.EncryptVector(enc, x)}
			for c := 0; c < pl.NumInputCts(); c++ {
				inputs["seeded"] = append(inputs["seeded"], seeded.EncryptCoeffs(x[c*pl.Chunk:min((c+1)*pl.Chunk, pl.In)]).Ciphertext())
			}
			for name, cts := range inputs {
				full := pl.Apply(pts, cts)
				switched := pl.Apply(pts, cts)
				for oc := range full {
					SubPlainInto(&full[oc], pl.MaskPlaintext(e, mask, oc))
				}
				want := pl.ExtractResult(dec.DecryptCoeffsBatch(full))
				rs := make([]Response, len(switched))
				for oc := range switched {
					raw, err := pl.Respond(&switched[oc], mask, oc).MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if rs[oc], err = pl.ParseResponse(raw, oc); err != nil {
						t.Fatal(err)
					}
				}
				if got := pl.DecryptResponses(dec, rs); !reflect.DeepEqual(got, want) {
					t.Fatalf("T=%d %dx%d %s inputs: slot decryption differs from full decryption", tv, pl.Out, pl.In, name)
				}
			}
		}
	}
}

// TestSwitchingNoiseWorstCase drives the modulus switch to the bound the
// package doc states: a secret whose every coefficient is ±1, and a c1
// whose every rounding error is ≈ ±1/2 with the sign that adds up at
// coefficient 0. The switched phase there must sit within (N+2)/2 of
// (2^k/q)·phase, exactly computed, and still decrypt.
func TestSwitchingNoiseWorstCase(t *testing.T) {
	for _, tv := range []uint64{field.P17, field.P20} {
		p := mustParams(DefaultN, tv)
		n, k := p.N, p.responseBits()
		rng := rand.New(rand.NewSource(63))
		s := make([]uint64, n)
		for i := range s {
			s[i] = 1
			if rng.Intn(2) == 0 {
				s[i] = ringq.Q - 1
			}
		}
		sk := SecretKey{s: append([]uint64(nil), s...)}
		p.ntt.Forward(sk.s)

		// c·2^k/q has fractional part just under 1/2 at lo and just over at
		// lo+1: rounding errors of ≈ −1/2 and ≈ +1/2.
		lo := (ringq.Q / 2) >> k
		// Coefficient 0 of c1·s is c1_0·s_0 − Σ_{i>0} c1_i·s_{N−i}; pick each
		// error's sign to match its term's.
		c1 := make([]uint64, n)
		for i := range c1 {
			sign := s[0]
			if i > 0 {
				sign = ringq.Neg(s[n-i])
			}
			c1[i] = lo
			if sign == 1 {
				c1[i] = lo + 1
			}
		}
		// c0 = Δm − c1·s + e, with a mid-range message and a small noise.
		m := randomMessage(rng, p, n)
		c1s := append([]uint64(nil), c1...)
		p.ntt.Forward(c1s)
		ringq.MulInto(c1s, c1s, sk.s)
		p.ntt.Inverse(c1s)
		c0 := make([]uint64, n)
		for i := range c0 {
			c0[i] = ringq.Sub(ringq.Add(ringq.Mul(m[i], p.delta), 3), c1s[i])
		}
		phase := ringq.Add(c0[0], c1s[0]) // c0 + c1·s at coefficient 0

		ct := Ciphertext{c0: c0, c1: c1}
		p.ntt.Forward(ct.c0)
		p.ntt.Forward(ct.c1)
		pl := PlanMatVec(p, 1, 1) // one read slot, coefficient 0
		dec := NewDecryptor(p, sk)
		r := pl.Respond(&ct, []uint64{0}, 0)
		if got := pl.DecryptResponses(dec, []Response{r}); got[0] != m[0] {
			t.Fatalf("T=%d: worst-case switch decrypted %d, want %d", tv, got[0], m[0])
		}

		// E = switched − 2^k·phase/q (mod 2^k), scaled by q to stay integral.
		switched := slotPhase(dec.reversedSecret(), r, 0, 0)
		q, twoK := new(big.Int).SetUint64(ringq.Q), new(big.Int).Lsh(big.NewInt(1), uint(k))
		errQ := new(big.Int).Mul(new(big.Int).SetUint64(switched), q)
		errQ.Sub(errQ, new(big.Int).Mul(twoK, new(big.Int).SetUint64(phase)))
		modulus := new(big.Int).Mul(twoK, q)
		errQ.Mod(errQ, modulus)
		if errQ.Cmp(new(big.Int).Rsh(modulus, 1)) > 0 {
			errQ.Sub(errQ, modulus)
		}
		bound := new(big.Int).Mul(q, big.NewInt(int64(n+2)))
		got := new(big.Int).Lsh(new(big.Int).Abs(errQ), 1) // 2·|E|·q
		if got.Cmp(bound) > 0 {
			t.Fatalf("T=%d: switching error %s/q exceeds (N+2)/2", tv, errQ)
		}
		// The construction must actually reach the worst case: |E| > 0.49·N.
		if new(big.Int).Mul(got, big.NewInt(100)).Cmp(new(big.Int).Mul(q, big.NewInt(int64(98*n)))) < 0 {
			t.Fatalf("T=%d: switching error %s/q is not near the N/2 worst case", tv, errQ)
		}
		if budget := new(big.Int).Mul(q, new(big.Int).Rsh(twoK, 2)); new(big.Int).Mul(got, new(big.Int).SetUint64(tv)).Cmp(budget) > 0 {
			t.Fatalf("T=%d: switching error %s/q above 2^k/(8T), half the decryption budget", tv, errQ)
		}
	}
}
