package bfv

import (
	"math"
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
// mask is subtracted in the NTT domain. Each response is re-randomized
// under the public key as it crossed the wire (parsed, then expanded) and
// must decrypt like the same response with no re-randomization, while its
// c1 differs from that one's everywhere but by chance.
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
		raw, err := pk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wirePK, err := ParsePublicKey(p.N, raw)
		if err != nil {
			t.Fatal(err)
		}
		wirePK = wirePK.Expand()
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
				switched, bare := pl.Apply(pts, cts), pl.Apply(pts, cts)
				for oc := range full {
					SubPlainInto(&full[oc], pl.MaskPlaintext(e, mask, oc))
				}
				want := pl.ExtractResult(dec.DecryptCoeffsBatch(full))
				rs, bs := make([]Response, len(switched)), make([]Response, len(bare))
				for oc := range switched {
					seed := [SeedSize]byte{byte(oc), byte(rng.Intn(256))}
					raw, err := pl.Respond(&switched[oc], mask, oc, wirePK, seed).MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if rs[oc], err = pl.ParseResponse(raw, oc); err != nil {
						t.Fatal(err)
					}
					zeroPK, zero := noRerandomization(pl, oc)
					bs[oc] = pl.respond(&bare[oc], mask, oc, zeroPK, zero)
					if same := sameCount(rs[oc].c1, bs[oc].c1); same > 2 {
						t.Fatalf("T=%d %dx%d %s inputs: re-randomization left %d of c1's %d values as they were", tv, pl.Out, pl.In, name, same, p.N)
					}
				}
				if got := pl.DecryptResponses(dec, rs); !reflect.DeepEqual(got, want) {
					t.Fatalf("T=%d %dx%d %s inputs: slot decryption differs from full decryption", tv, pl.Out, pl.In, name)
				}
				if got := pl.DecryptResponses(dec, bs); !reflect.DeepEqual(got, want) {
					t.Fatalf("T=%d %dx%d %s inputs: a response with no re-randomization decrypts wrong", tv, pl.Out, pl.In, name)
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
		zeroPK, zero := noRerandomization(pl, 0)
		r := pl.respond(&ct, []uint64{0}, 0, zeroPK, zero)
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

// noRerandomization is the randomness of a response that adds none, with a
// zero key to add it under: the mask and the switch alone, as Respond was
// before responses were re-randomized.
func noRerandomization(pl MatVecPlan, oc int) (PublicKey, rerandomization) {
	n := pl.Params.N
	return PublicKey{a: make([]uint64, n), b: make([]uint64, n)},
		rerandomization{u: make([]uint64, n), e2: make([]uint64, n), slotNoise: make([]uint64, pl.slots(oc))}
}

// sameCount returns how many positions a and b agree at.
func sameCount(a, b []uint64) int {
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return n
}

// TestFloodNoiseWorstCase drives every term of the package doc's budget to
// its bound at one read slot, all with the same sign: a matvec noise of
// exactly matvecNoiseLimit, a re-randomization with ternary u and s at ±1
// and every error at ±2 aligned to add up (the key's a is zero, so c1 is
// the test's to pick), the flood at its top, 2^f − 1, and switching errors
// aligned as in TestSwitchingNoiseWorstCase. The slot must still decrypt
// exactly and sit within 2^k/(2T) of the message; the same response with
// the flood doubled must not.
func TestFloodNoiseWorstCase(t *testing.T) {
	for _, tv := range []uint64{field.P17, field.P20} {
		p := mustParams(DefaultN, tv)
		n, k, f := p.N, p.responseBits(), p.floodBits()
		rng := rand.New(rand.NewSource(73))
		sign := func() uint64 { return []uint64{1, ringq.Q - 1}[rng.Intn(2)] }
		// neg0 is the sign x_i carries in coefficient 0 of x·y, whose terms
		// are x_0·y_0 and −x_i·y_{N−i}.
		neg0 := func(i int, v uint64) uint64 {
			if i == 0 {
				return v
			}
			return ringq.Neg(v)
		}
		at0 := func(i int) int { return (n - i) % n }
		s, u, e, e2 := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for i := range s {
			s[i], u[i] = sign(), sign()
		}
		for i := range e {
			// −(u·e)_0 = Σ −neg0(i)·u_i·e_{at0(i)} and (e2·s)_0 likewise:
			// each term +2.
			e[at0(i)] = ringq.Mul(ringq.Neg(neg0(i, u[i])), 2)
			e2[i] = ringq.Mul(neg0(i, s[at0(i)]), 2)
		}
		sk := SecretKey{s: append([]uint64(nil), s...)}
		p.ntt.Forward(sk.s)
		pk := PublicKey{a: make([]uint64, n), b: make([]uint64, n)}
		for i, v := range e {
			pk.b[i] = ringq.Neg(v)
		}
		p.ntt.Forward(pk.b)
		rr := rerandomization{u: append([]uint64(nil), u...), e2: e2, slotNoise: []uint64{2 + 1<<f - 1}}
		p.ntt.Forward(rr.u)

		// c1 after re-randomization is c1b + e2: pick it as the switching
		// test does, rounding errors ≈ ±1/2 with the sign of their term.
		lo := (ringq.Q / 2) >> k
		c1b := make([]uint64, n)
		for i := range c1b {
			c1b[i] = lo
			if neg0(i, s[at0(i)]) == 1 {
				c1b[i] = lo + 1
			}
			c1b[i] = ringq.Sub(c1b[i], e2[i])
		}
		// c0 = Δm + v_mat − c1b·s, v_mat at its limit.
		m := randomMessage(rng, p, n)
		c1s := append([]uint64(nil), c1b...)
		p.ntt.Forward(c1s)
		ringq.MulInto(c1s, c1s, sk.s)
		p.ntt.Inverse(c1s)
		c0 := make([]uint64, n)
		for i := range c0 {
			c0[i] = ringq.Sub(ringq.Add(ringq.Mul(m[i], p.delta), p.matvecNoiseLimit()), c1s[i])
		}
		p.ntt.Forward(c0)
		p.ntt.Forward(c1b)

		pl := PlanMatVec(p, 1, 1) // one read slot, coefficient 0
		dec := NewDecryptor(p, sk)
		for _, c := range []struct {
			extra uint64
			ok    bool
		}{{0, true}, {1 << f, false}} {
			ct := Ciphertext{c0: append([]uint64(nil), c0...), c1: append([]uint64(nil), c1b...)}
			rr.slotNoise[0] = 2 + 1<<f - 1 + c.extra
			r := pl.respond(&ct, []uint64{0}, 0, pk, rr)
			got := pl.DecryptResponses(dec, []Response{r})[0]
			if (got == m[0]) != c.ok {
				t.Fatalf("T=%d flood +%d: decrypted %d, want %d: %v", tv, c.extra, got, m[0], c.ok)
			}
			if !c.ok {
				continue
			}
			// T·switched − 2^k·m (mod 2^k·T), centered: the total error
			// times T, which must be under 2^k/2 and, for a worst case,
			// above 0.99 of it.
			dev := new(big.Int).SetUint64(slotPhase(dec.reversedSecret(), r, 0, 0))
			dev.Mul(dev, new(big.Int).SetUint64(tv))
			dev.Sub(dev, new(big.Int).Lsh(new(big.Int).SetUint64(m[0]), uint(k)))
			modulus := new(big.Int).Lsh(new(big.Int).SetUint64(tv), uint(k))
			dev.Mod(dev, modulus)
			if dev.Cmp(new(big.Int).Rsh(modulus, 1)) > 0 {
				dev.Sub(dev, modulus)
			}
			half := new(big.Int).Lsh(big.NewInt(1), uint(k-1))
			if dev.Sign() < 0 || dev.Cmp(half) >= 0 || new(big.Int).Mul(dev, big.NewInt(100)).Cmp(new(big.Int).Mul(half, big.NewInt(99))) < 0 {
				t.Fatalf("T=%d: total error %s/T, want within [0.99, 1)·2^k/(2T)", tv, dev)
			}
		}
	}
}

// TestResponsesHideWeights is the weight-recovery attack a response with
// no re-randomization allows. The client knows the a of every upload it
// sent, and c1 of a response is a·w for the packed weight plaintext w:
// exactly, before the switch to 2^k. Dividing by a in the NTT domain then
// reads w; after the switch c1 is rounded, so the attack instead checks
// each small weight row, switch(a·w) == c1, and a row of |w| ≤ 3 has only
// 7^In candidates. Without re-randomization exactly the true row matches;
// with it (Respond), none does.
func TestResponsesHideWeights(t *testing.T) {
	p := mustParams(1024, field.P20)
	sk, pk := KeyGen(p, newSeeded(74))
	e := NewEncoder(p)
	pl := PlanMatVec(p, 1, 3)
	w := [][]uint64{{2, p.T - 3, 1}}
	x := randomMessage(rand.New(rand.NewSource(76)), p, 3)
	up := NewSeededEncryptor(p, sk, newSeeded(75)).EncryptCoeffs(x)
	a := up.Ciphertext().c1
	pts := pl.EncodeMatrix(e, w)
	mask := []uint64{12345}

	// The unswitched product leaks w to a plain division.
	prod := pl.Apply(pts, []Ciphertext{up.Ciphertext()})[0]
	for i := range a {
		if ringq.Mul(prod.c1[i], ringq.Inv(a[i])) != pts[0][0].coeffs[i] {
			t.Fatal("c1 ⊙ â⁻¹ of the unswitched product is not the weight plaintext")
		}
	}

	attack := func(r Response) (found [][]uint64) {
		c1 := make([]uint64, p.N)
		for w0 := -3; w0 <= 3; w0++ {
			for w1 := -3; w1 <= 3; w1++ {
				for w2 := -3; w2 <= 3; w2++ {
					row := []uint64{(p.T + uint64(w0)) % p.T, (p.T + uint64(w1)) % p.T, (p.T + uint64(w2)) % p.T}
					ringq.MulInto(c1, a, pl.EncodeMatrix(e, [][]uint64{row})[0][0].coeffs)
					p.ntt.Inverse(c1)
					match := true
					for i, v := range c1 {
						if switchModulus(v, r.k) != r.c1[i] {
							match = false
							break
						}
					}
					if match {
						found = append(found, row)
					}
				}
			}
		}
		return found
	}

	zeroPK, zero := noRerandomization(pl, 0)
	bare := pl.respond(ptr(pl.Apply(pts, []Ciphertext{up.Ciphertext()})[0]), mask, 0, zeroPK, zero)
	if found := attack(bare); !reflect.DeepEqual(found, w) {
		t.Fatalf("attack on a response with no re-randomization found %v, want exactly %v", found, w)
	}
	r := pl.Respond(ptr(pl.Apply(pts, []Ciphertext{up.Ciphertext()})[0]), mask, 0, pk.Expand(), [SeedSize]byte{7})
	if found := attack(r); len(found) != 0 {
		t.Fatalf("attack on a re-randomized response found %v", found)
	}
	f := field.New(p.T)
	if got := pl.DecryptResponses(NewDecryptor(p, sk), []Response{r}); got[0] != f.Sub(f.DotProduct(w[0], x), mask[0]) {
		t.Fatalf("re-randomized response decrypts to %d, want %d", got[0], f.Sub(f.DotProduct(w[0], x), mask[0]))
	}
}

// TestResponsesCarryTheFlood checks the flood in what a response sends: at
// a read slot, the switched phase less (2^k/T)·m is the noise the client
// sees, and over 64 response seeds it must reach half the flood's
// (2^k/q)·2^f while staying inside the 2^k/(2T) decryption budget. A
// response with no flood sits within a few units of the message.
func TestResponsesCarryTheFlood(t *testing.T) {
	p := mustParams(1024, field.P20)
	sk, pk := KeyGen(p, newSeeded(77))
	dec := NewDecryptor(p, sk)
	pl := PlanMatVec(p, 1, 1)
	x := []uint64{5}
	up := NewSeededEncryptor(p, sk, newSeeded(78)).EncryptCoeffs(x)
	pts := pl.EncodeMatrix(NewEncoder(p), [][]uint64{{3}})
	k, f := p.responseBits(), p.floodBits()
	// noise returns T·(switched phase) − 2^k·m, centered mod 2^k·T: the
	// slot's noise in units of 1/T.
	noise := func(r Response) int64 {
		m := int64(p.T) << k
		d := int64(slotPhase(dec.reversedSecret(), r, 0, 0)*p.T) - 15<<k
		switch {
		case d > m/2:
			d -= m
		case d < -m/2:
			d += m
		}
		return d
	}
	var widest int64
	for s := 0; s < 64; s++ {
		r := pl.Respond(ptr(pl.Apply(pts, []Ciphertext{up.Ciphertext()})[0]), []uint64{0}, 0, pk.Expand(), [SeedSize]byte{byte(s)})
		n := noise(r)
		if n < 0 {
			n = -n
		}
		if 2*n >= 1<<k {
			t.Fatalf("seed %d: slot noise %d/T outside the 2^k/(2T) budget", s, n)
		}
		widest = max(widest, n)
	}
	// (2^k/q)·2^(f−1)·T in units of 1/T.
	half := int64(float64(p.T) * math.Ldexp(1, k+f-1) / float64(ringq.Q))
	if widest < half {
		t.Fatalf("widest slot noise over 64 responses is %d/T, want at least %d/T: the flood is missing or narrow", widest, half)
	}
	zeroPK, zero := noRerandomization(pl, 0)
	if n := noise(pl.respond(ptr(pl.Apply(pts, []Ciphertext{up.Ciphertext()})[0]), []uint64{0}, 0, zeroPK, zero)); n > 4*int64(p.T) || n < -4*int64(p.T) {
		t.Fatalf("a response with no flood has slot noise %d/T", n)
	}
}
