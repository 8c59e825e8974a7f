package bfv

import (
	"fmt"
	"math/bits"

	"privinf/internal/ringq"
)

// Response is one matvec output ciphertext in transport form, switched to
// modulus 2^k (k = Params.responseBits, derived from N and T): all of c1,
// and c0 at the plan's read slots only (see the package doc). Only its
// decryptor reads it.
type Response struct {
	k  int
	c1 []uint64 // N values below 2^k
	c0 []uint64 // one value below 2^k per read slot
}

// slots returns how many rows output ciphertext oc carries: RowsPer, or
// fewer in a partial last one.
func (pl MatVecPlan) slots(oc int) int {
	return min(pl.RowsPer, pl.Out-oc*pl.RowsPer)
}

// slot returns the coefficient row m of an output ciphertext is read from.
func (pl MatVecPlan) slot(m int) int { return m*pl.Chunk + pl.Chunk - 1 }

// CheckNoise refuses weights the noise budget cannot carry: norms[r] is
// ‖W_r‖₁, row r's weights centered in (−T/2, T/2), and a row whose matvec
// bound (package doc) exceeds A − 2^f − (4N + 2) could decrypt wrong. The
// error names the row, its bound and the limit.
func (pl MatVecPlan) CheckNoise(norms []uint64) error {
	if len(norms) != pl.Out {
		return fmt.Errorf("bfv: %d row norms for %d rows", len(norms), pl.Out)
	}
	limit := float64(pl.Params.matvecNoiseLimit())
	for r, bound := range pl.noiseBounds(norms) {
		if bound > limit {
			return fmt.Errorf("bfv: row %d: matvec noise bound %.0f above the limit %.0f", r, bound, limit)
		}
	}
	return nil
}

// noiseBounds returns each of the plan's Out rows' matvec noise bound,
// ρ·(‖W_r‖₁ + 1) + 2·Σ_{r' in oc} ‖W_r'‖₁ for ρ = q − Δ·T. A float64
// never overflows, and it is exact while the sums stay below 2^53, far
// above any limit.
func (pl MatVecPlan) noiseBounds(norms []uint64) []float64 {
	rho := float64(ringq.Q - pl.Params.delta*pl.Params.T)
	bounds := make([]float64, pl.Out)
	for r := range bounds {
		oc := r / pl.RowsPer
		var ct float64
		for _, n := range norms[oc*pl.RowsPer : oc*pl.RowsPer+pl.slots(oc)] {
			ct += float64(n)
		}
		bounds[r] = rho*(float64(norms[r])+1) + 2*ct
	}
	return bounds
}

// Respond turns output ciphertext oc of Apply into its response: E(W·x − s)
// for the mask s (length Out), re-randomized under pk, flooded at the read
// slots and switched to 2^k (see the package doc). Its randomness expands
// from seed. ct may be lazy, as AccumulateMulPlain leaves it, and is
// consumed; pk must hold a (PublicKey.Expand).
func (pl MatVecPlan) Respond(ct *Ciphertext, mask []uint64, oc int, pk PublicKey, seed [SeedSize]byte) Response {
	rr := pl.sampleRerandomization(seed, oc)
	defer putScratch(rr.u)
	defer putScratch(rr.e2)
	return pl.respond(ct, mask, oc, pk, rr)
}

// rerandomization is the randomness one response adds: u in the NTT
// domain, e2 for all of c1, and e1 plus the flood at each read slot.
type rerandomization struct {
	u, e2, slotNoise []uint64
}

// sampleRerandomization expands response oc's randomness from seed: a
// ternary u, then e2, then each read slot's e1, both 16 coefficients a
// word, then each slot's flood.
func (pl MatVecPlan) sampleRerandomization(seed [SeedSize]byte, oc int) rerandomization {
	p, slots := pl.Params, pl.slots(oc)
	smp := newSampler(seedStream(seed))
	rr := rerandomization{u: getScratch(p.N), e2: getScratch(p.N), slotNoise: make([]uint64, slots)}
	smp.ternary(rr.u)
	p.ntt.Forward(rr.u)
	smp.cbdPacked(rr.e2)
	smp.cbdPacked(rr.slotNoise)
	smp.addFlood(rr.slotNoise, p.floodBits())
	return rr
}

// respond is Respond on given randomness. u·(b, a) is added lazily and
// the sum made canonical before the two inverse NTTs, which run in place;
// e2 is added to all of c1, and the mask and the slot noise to c0 at the
// read slots only, in the coefficient domain.
func (pl MatVecPlan) respond(ct *Ciphertext, mask []uint64, oc int, pk PublicKey, rr rerandomization) Response {
	p := pl.Params
	ringq.MulAddLazyInto(ct.c0, rr.u, pk.b)
	ringq.MulAddLazyInto(ct.c1, rr.u, pk.a)
	canonicalizeCt(ct)
	p.ntt.Inverse(ct.c0)
	p.ntt.Inverse(ct.c1)
	k := p.responseBits()
	r := Response{k: k, c1: ct.c1, c0: make([]uint64, pl.slots(oc))}
	for m := range r.c0 {
		c := ringq.Sub(ct.c0[pl.slot(m)], ringq.Mul(mask[oc*pl.RowsPer+m], p.delta))
		r.c0[m] = switchModulus(ringq.Add(c, rr.slotNoise[m]), k)
	}
	for i, c := range r.c1 {
		r.c1[i] = switchModulus(ringq.Add(c, rr.e2[i]), k)
	}
	return r
}

// switchModulus returns round(2^k·c/q) mod 2^k for c in [0, q).
func switchModulus(c uint64, k int) uint64 {
	hi, lo := c>>(64-k), c<<k
	lo, carry := bits.Add64(lo, ringq.Q/2, 0)
	quo, _ := bits.Div64(hi+carry, lo, ringq.Q)
	return quo & (1<<k - 1)
}

// DecryptResponses decrypts the NumOutputCts responses of one product and
// returns its Out values, as ExtractResult(DecryptCoeffsBatch(..)) does for
// the unswitched ciphertexts.
func (pl MatVecPlan) DecryptResponses(d *Decryptor, rs []Response) []uint64 {
	out := make([]uint64, 0, pl.Out)
	t, secret := pl.Params.T, d.reversedSecret()
	for _, r := range rs {
		for m := range r.c0 {
			// round(T·phase/2^k) mod T
			hi, lo := bits.Mul64(t, slotPhase(secret, r, m, pl.slot(m)))
			lo, carry := bits.Add64(lo, 1<<(r.k-1), 0)
			hi += carry
			out = append(out, ((hi<<(64-r.k))|(lo>>r.k))%t)
		}
	}
	return out
}

// slotPhase returns c0 + c1·s mod 2^k at read slot m, coefficient j, for the
// reversed coefficient-domain secret rs[x] = s[N−1−x]. The negacyclic
// product's coefficient j is Σ_{i≤j} c1_i·s_{j−i} − Σ_{i>j} c1_i·s_{N+j−i}:
// two dot products over slices of rs, computed mod 2^64 and so mod 2^k.
func slotPhase(rs []uint64, r Response, m, j int) uint64 {
	n := len(r.c1)
	phase := r.c0[m] + dot(r.c1[:j+1], rs[n-1-j:]) - dot(r.c1[j+1:], rs[:n-1-j])
	return phase & (1<<r.k - 1)
}

// dot returns Σ a_i·b_i mod 2^64; len(b) ≥ len(a).
func dot(a, b []uint64) uint64 {
	b = b[:len(a)]
	var s uint64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// reversedSecret returns rs[x] = s[N−1−x] for the coefficient-domain secret
// s, each coefficient lifted to its centered representative mod 2^64.
func (d *Decryptor) reversedSecret() []uint64 {
	d.rsOnce.Do(func() {
		s := append([]uint64(nil), d.sk.s...)
		d.params.ntt.Inverse(s)
		n := len(s)
		d.rs = make([]uint64, n)
		for i, v := range s {
			if v > ringq.Q/2 {
				v -= ringq.Q // wraps to the two's-complement negative
			}
			d.rs[n-1-i] = v
		}
	})
	return d.rs
}

// responseBytes returns the encoded size of response oc: N + slots(oc)
// values at k bits each.
func (pl MatVecPlan) responseBytes(oc int) int {
	return (pl.Params.responseBits()*(pl.Params.N+pl.slots(oc)) + 7) / 8
}

// MarshalBinary packs c1 then c0, k bits a value, least significant bit
// first; the last byte's unused bits are zero.
func (r Response) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, (r.k*(len(r.c1)+len(r.c0))+7)/8)
	var acc uint64
	var nacc int
	for _, vs := range [][]uint64{r.c1, r.c0} {
		for _, v := range vs {
			acc |= v << nacc
			nacc += r.k
			for nacc >= 8 {
				out = append(out, byte(acc))
				acc >>= 8
				nacc -= 8
			}
		}
	}
	if nacc > 0 {
		out = append(out, byte(acc))
	}
	return out, nil
}

// ParseResponse decodes response oc, which must be exactly N + slots(oc)
// values at k bits each, with zero padding bits.
func (pl MatVecPlan) ParseResponse(data []byte, oc int) (Response, error) {
	if oc < 0 || oc >= pl.NumOutputCts() {
		return Response{}, fmt.Errorf("bfv: response %d of a %d-response product", oc, pl.NumOutputCts())
	}
	if want := pl.responseBytes(oc); len(data) != want {
		return Response{}, fmt.Errorf("bfv: response of %d bytes, want %d", len(data), want)
	}
	k := pl.Params.responseBits()
	r := Response{k: k, c1: make([]uint64, pl.Params.N), c0: make([]uint64, pl.slots(oc))}
	var acc uint64
	var nacc int
	for _, vs := range [][]uint64{r.c1, r.c0} {
		for i := range vs {
			for nacc < k {
				acc |= uint64(data[0]) << nacc
				data = data[1:]
				nacc += 8
			}
			vs[i] = acc & (1<<k - 1)
			acc >>= k
			nacc -= k
		}
	}
	if acc != 0 {
		return Response{}, fmt.Errorf("bfv: response padding bits are not zero")
	}
	return r, nil
}
