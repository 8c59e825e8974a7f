package bfv

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"privinf/internal/field"
	"privinf/internal/ringq"
)

// testParams uses the P17 field, the default for the real-crypto protocol.
var testParams = mustParams(DefaultN, field.P17)

func mustParams(n int, t uint64) Params {
	p, err := NewParams(n, t)
	if err != nil {
		panic(err)
	}
	return p
}

// mulPlain is ct*pt through the fully reduced reference kernel.
func mulPlain(p Params, ct Ciphertext, pt Plaintext) Ciphertext {
	acc := ZeroCiphertext(p)
	MulPlainAddInto(&acc, ct, pt)
	return acc
}

// seededReader adapts math/rand to io.Reader for reproducible tests.
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

func randomMessage(rng *rand.Rand, p Params, n int) []uint64 {
	m := make([]uint64, n)
	for i := range m {
		m[i] = rng.Uint64() % p.T
	}
	return m
}

func TestNewParamsValidation(t *testing.T) {
	cases := []struct {
		n  int
		t_ uint64
		ok bool
	}{
		{4096, field.P17, true},
		{4096, field.P20, true},
		{4096, field.P31, false}, // exceeds single-modulus noise budget
		{4096, 65536, false},     // not prime-compatible: 65536-1 not ≡ 0 mod 8192
		{4095, field.P17, false}, // not a power of two
		{4096, 0, false},
	}
	for _, c := range cases {
		_, err := NewParams(c.n, c.t_)
		if (err == nil) != c.ok {
			t.Errorf("NewParams(%d, %d): err=%v, want ok=%v", c.n, c.t_, err, c.ok)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	p := testParams
	rng := rand.New(rand.NewSource(1))
	sk, pk := KeyGen(p, newSeeded(2))
	enc := NewEncryptor(p, pk, newSeeded(3))
	dec := NewDecryptor(p, sk)

	for trial := 0; trial < 5; trial++ {
		m := randomMessage(rng, p, p.N)
		got := dec.DecryptCoeffs(enc.EncryptCoeffs(m))
		for i := range m {
			if got[i] != m[i] {
				t.Fatalf("trial %d: coeff %d: got %d want %d", trial, i, got[i], m[i])
			}
		}
	}
}

func TestFreshNoiseBudget(t *testing.T) {
	p := testParams
	sk, pk := KeyGen(p, newSeeded(4))
	enc := NewEncryptor(p, pk, newSeeded(5))
	dec := NewDecryptor(p, sk)
	m := make([]uint64, p.N)
	budget := dec.NoiseBudget(enc.EncryptCoeffs(m), m)
	// A fresh ciphertext should have >= 25 bits of headroom with these
	// parameters (q/2t ~= 2^46, fresh noise ~= 2^14 worst case).
	if budget < 25 {
		t.Fatalf("fresh noise budget %d bits, want >= 25", budget)
	}
}

func TestHomomorphicAdd(t *testing.T) {
	p := testParams
	f := field.New(p.T)
	rng := rand.New(rand.NewSource(6))
	sk, pk := KeyGen(p, newSeeded(7))
	enc := NewEncryptor(p, pk, newSeeded(8))
	dec := NewDecryptor(p, sk)

	a := randomMessage(rng, p, p.N)
	b := randomMessage(rng, p, p.N)
	ct := enc.EncryptCoeffs(a)
	AddCtInto(&ct, enc.EncryptCoeffs(b))
	sum := dec.DecryptCoeffs(ct)
	for i := range a {
		if sum[i] != f.Add(a[i], b[i]) {
			t.Fatalf("add coeff %d: got %d want %d", i, sum[i], f.Add(a[i], b[i]))
		}
	}
}

func TestSubPlainInto(t *testing.T) {
	p := testParams
	f := field.New(p.T)
	rng := rand.New(rand.NewSource(9))
	sk, pk := KeyGen(p, newSeeded(10))
	enc := NewEncryptor(p, pk, newSeeded(11))
	dec := NewDecryptor(p, sk)
	e := NewEncoder(p)

	a := randomMessage(rng, p, p.N)
	b := randomMessage(rng, p, p.N)
	pt := e.EncodeAddNTT(b)
	ct := enc.EncryptCoeffs(a)
	SubPlainInto(&ct, pt)
	diff := dec.DecryptCoeffs(ct)
	for i := range a {
		if diff[i] != f.Sub(a[i], b[i]) {
			t.Fatalf("subplain coeff %d: got %d want %d", i, diff[i], f.Sub(a[i], b[i]))
		}
	}
}

// plainNegacyclicModT computes the negacyclic product of a and b mod t,
// the reference for ciphertext-plaintext multiplication.
func plainNegacyclicModT(f field.Field, a, b []uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			k := i + j
			prod := f.Mul(a[i], b[j])
			if k < n {
				out[k] = f.Add(out[k], prod)
			} else {
				out[k-n] = f.Sub(out[k-n], prod)
			}
		}
	}
	return out
}

func TestMulPlainSparse(t *testing.T) {
	// Use a small number of nonzero coefficients so the O(N^2) reference
	// stays fast while still exercising negacyclic wraparound.
	p := testParams
	f := field.New(p.T)
	rng := rand.New(rand.NewSource(12))
	sk, pk := KeyGen(p, newSeeded(13))
	enc := NewEncryptor(p, pk, newSeeded(14))
	dec := NewDecryptor(p, sk)
	e := NewEncoder(p)

	a := make([]uint64, p.N)
	b := make([]uint64, p.N)
	for k := 0; k < 64; k++ {
		a[rng.Intn(p.N)] = rng.Uint64() % p.T
		b[rng.Intn(p.N)] = rng.Uint64() % p.T
	}
	want := plainNegacyclicModT(f, a, b)
	got := dec.DecryptCoeffs(mulPlain(p, enc.EncryptCoeffs(a), e.EncodeMulNTT(b)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mulplain coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestMulPlainDenseNoiseBudget(t *testing.T) {
	// Worst realistic case for the protocol: dense random plaintext. The
	// result must still decrypt; we check budget stays positive.
	p := testParams
	rng := rand.New(rand.NewSource(15))
	sk, pk := KeyGen(p, newSeeded(16))
	enc := NewEncryptor(p, pk, newSeeded(17))
	dec := NewDecryptor(p, sk)
	e := NewEncoder(p)

	a := randomMessage(rng, p, p.N)
	b := randomMessage(rng, p, p.N)
	ct := mulPlain(p, enc.EncryptCoeffs(a), e.EncodeMulNTT(b))
	f := field.New(p.T)
	want := plainNegacyclicModT(f, a, b)
	got := dec.DecryptCoeffs(ct)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dense mulplain coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
	if budget := dec.NoiseBudget(ct, want); budget < 1 {
		t.Fatalf("post-multiplication budget %d, want >= 1", budget)
	}
}

func TestMatVecMatchesPlain(t *testing.T) {
	p := testParams
	f := field.New(p.T)
	rng := rand.New(rand.NewSource(22))
	sk, pk := KeyGen(p, newSeeded(23))
	enc := NewEncryptor(p, pk, newSeeded(24))
	dec := NewDecryptor(p, sk)
	e := NewEncoder(p)

	dims := []struct{ out, in int }{
		{1, 1}, {3, 5}, {16, 64}, {10, 4096}, {7, 5000}, {130, 100},
	}
	for _, d := range dims {
		w := make([][]uint64, d.out)
		for r := range w {
			w[r] = make([]uint64, d.in)
			for c := range w[r] {
				w[r][c] = rng.Uint64() % 512 // realistic quantized weights
			}
		}
		x := make([]uint64, d.in)
		for i := range x {
			x[i] = rng.Uint64() % p.T
		}

		pl := PlanMatVec(p, d.out, d.in)
		cts := pl.EncryptVector(enc, x)
		pts := pl.EncodeMatrix(e, w)
		res := pl.Apply(pts, cts)
		decs := make([][]uint64, len(res))
		for i := range res {
			decs[i] = dec.DecryptCoeffs(res[i])
		}
		got := pl.ExtractResult(decs)

		for r := 0; r < d.out; r++ {
			want := f.DotProduct(w[r], x)
			if got[r] != want {
				t.Fatalf("dims %dx%d row %d: got %d want %d", d.out, d.in, r, got[r], want)
			}
		}
	}
}

func TestMatVecWithMask(t *testing.T) {
	// The DELPHI offline pattern: server computes Enc(w·r - s).
	p := testParams
	f := field.New(p.T)
	rng := rand.New(rand.NewSource(25))
	sk, pk := KeyGen(p, newSeeded(26))
	enc := NewEncryptor(p, pk, newSeeded(27))
	dec := NewDecryptor(p, sk)
	e := NewEncoder(p)

	out, in := 9, 300
	w := make([][]uint64, out)
	for r := range w {
		w[r] = make([]uint64, in)
		for c := range w[r] {
			w[r][c] = rng.Uint64() % 256
		}
	}
	x := make([]uint64, in)
	s := make([]uint64, out)
	for i := range x {
		x[i] = rng.Uint64() % p.T
	}
	for i := range s {
		s[i] = rng.Uint64() % p.T
	}

	pl := PlanMatVec(p, out, in)
	cts := pl.EncryptVector(enc, x)
	pts := pl.EncodeMatrix(e, w)
	res := pl.Apply(pts, cts)
	for oc := range res {
		SubPlainInto(&res[oc], pl.MaskPlaintext(e, s, oc))
	}
	decs := make([][]uint64, len(res))
	for i := range res {
		decs[i] = dec.DecryptCoeffs(res[i])
	}
	got := pl.ExtractResult(decs)
	for r := 0; r < out; r++ {
		want := f.Sub(f.DotProduct(w[r], x), s[r])
		if got[r] != want {
			t.Fatalf("row %d: got %d want %d", r, got[r], want)
		}
	}
}

func TestMatVecPlanGeometry(t *testing.T) {
	p := testParams
	check := func(out, in uint16) bool {
		o, i := int(out)%200+1, int(in)%9000+1
		pl := PlanMatVec(p, o, i)
		if pl.Chunk < 1 || pl.Chunk > p.N || pl.RowsPer < 1 {
			return false
		}
		if pl.NumInputCts()*pl.Chunk < i {
			return false
		}
		if pl.NumOutputCts()*pl.RowsPer < o {
			return false
		}
		// Every result position must be a valid, distinct coefficient.
		seen := make(map[[2]int]bool)
		for r := 0; r < o; r++ {
			pos := [2]int{r / pl.RowsPer, pl.slot(r % pl.RowsPer)}
			if pos[1] >= p.N || seen[pos] {
				return false
			}
			seen[pos] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCiphertextSerializationRoundTrip: both ciphertext records, an upload
// and a response, survive marshal → parse bit-exactly at their fixed sizes,
// and an upload's expanded ciphertext decrypts.
func TestCiphertextSerializationRoundTrip(t *testing.T) {
	p := testParams
	rng := rand.New(rand.NewSource(28))
	sk, pk := KeyGen(p, newSeeded(29))
	m := randomMessage(rng, p, p.N)
	up := NewSeededEncryptor(p, sk, newSeeded(30)).EncryptCoeffs(m)

	data, err := up.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != SeedSize+8*p.N {
		t.Fatalf("upload of %d bytes, want %d", len(data), SeedSize+8*p.N)
	}
	got, err := p.ParseUpload(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, up) {
		t.Fatal("upload did not round-trip")
	}
	if dec := NewDecryptor(p, sk).DecryptCoeffs(got.Ciphertext()); !reflect.DeepEqual(dec, m) {
		t.Fatal("parsed upload does not decrypt to its message")
	}

	pl := PlanMatVec(p, 5, 100)
	resp := pl.Respond(ptr(got.Ciphertext()), make([]uint64, pl.Out), 0, pk.Expand(), [SeedSize]byte{1})
	raw, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != pl.responseBytes(0) {
		t.Fatalf("response of %d bytes, want %d", len(raw), pl.responseBytes(0))
	}
	back, err := pl.ParseResponse(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Fatal("response did not round-trip")
	}
}

func ptr[T any](v T) *T { return &v }

// TestPublicKeySerializationRoundTrip: the key travels as seed ‖ b, and
// KeyGen returns it in the form the parser does, with no a until Expand.
func TestPublicKeySerializationRoundTrip(t *testing.T) {
	p := testParams
	_, pk := KeyGen(p, newSeeded(31))
	data, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != SeedSize+8*p.N {
		t.Fatalf("public key of %d bytes, want %d", len(data), SeedSize+8*p.N)
	}
	pk2, err := ParsePublicKey(p.N, data)
	if err != nil {
		t.Fatal(err)
	}
	if pk.a != nil || pk2.a != nil {
		t.Fatal("a generated or parsed key expanded its a before Expand")
	}
	if !reflect.DeepEqual(pk2, pk) || !reflect.DeepEqual(pk2.Expand(), pk.Expand()) {
		t.Fatal("public key did not round-trip")
	}
}

func TestSerializationRejectsGarbage(t *testing.T) {
	p := testParams
	for _, data := range [][]byte{{1, 2, 3}, make([]byte, SeedSize+8*p.N-8), make([]byte, SeedSize+8*p.N+8)} {
		if _, err := p.ParseUpload(data); err == nil {
			t.Fatalf("upload of %d bytes should fail", len(data))
		}
	}
	// A c0 coefficient ≥ q at the right length: the lazy matvec kernels
	// assume canonical input.
	notCanonical := make([]byte, SeedSize+8*p.N)
	binary.LittleEndian.PutUint64(notCanonical[SeedSize+8*7:], ringq.Q)
	if _, err := p.ParseUpload(notCanonical); err == nil {
		t.Fatal("upload with a coefficient equal to q should fail")
	}

	pl := PlanMatVec(p, 5, 100)
	for _, data := range [][]byte{{1, 2, 3}, make([]byte, pl.responseBytes(0)-1), make([]byte, pl.responseBytes(0)+1)} {
		if _, err := pl.ParseResponse(data, 0); err == nil {
			t.Fatalf("response of %d bytes should fail", len(data))
		}
	}
	// 31 bits × (4096 + 5) values leave 5 padding bits in the last byte.
	padded := make([]byte, pl.responseBytes(0))
	padded[len(padded)-1] = 0x80
	if _, err := pl.ParseResponse(padded, 0); err == nil {
		t.Fatal("response with a nonzero padding bit should fail")
	}
	if _, err := pl.ParseResponse(padded[:0], pl.NumOutputCts()); err == nil {
		t.Fatal("response past the product's last should fail")
	}
	// The public key's parser is as strict: exact length, b below q.
	for _, data := range [][]byte{nil, make([]byte, SeedSize+8*p.N-1), make([]byte, SeedSize+8*p.N+8)} {
		if _, err := ParsePublicKey(p.N, data); err == nil {
			t.Fatalf("public key of %d bytes should fail", len(data))
		}
	}
	if _, err := ParsePublicKey(p.N, notCanonical); err == nil {
		t.Fatal("public key with a coefficient equal to q should fail")
	}
}

func TestEncryptRejectsBadMessages(t *testing.T) {
	p := testParams
	_, pk := KeyGen(p, newSeeded(32))
	enc := NewEncryptor(p, pk, newSeeded(33))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized message should panic")
			}
		}()
		enc.EncryptCoeffs(make([]uint64, p.N+1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range coefficient should panic")
			}
		}()
		enc.EncryptCoeffs([]uint64{p.T})
	}()
}

func BenchmarkEncrypt(b *testing.B) {
	p := testParams
	_, pk := KeyGen(p, newSeeded(40))
	enc := NewEncryptor(p, pk, newSeeded(41))
	m := make([]uint64, p.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncryptCoeffs(m)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	p := testParams
	sk, pk := KeyGen(p, newSeeded(42))
	enc := NewEncryptor(p, pk, newSeeded(43))
	dec := NewDecryptor(p, sk)
	ct := enc.EncryptCoeffs(make([]uint64, p.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.DecryptCoeffs(ct)
	}
}

func BenchmarkMulPlainAddInto(b *testing.B) {
	p := testParams
	_, pk := KeyGen(p, newSeeded(44))
	enc := NewEncryptor(p, pk, newSeeded(45))
	e := NewEncoder(p)
	ct := enc.EncryptCoeffs(make([]uint64, p.N))
	pt := e.EncodeMulNTT(make([]uint64, p.N))
	acc := ZeroCiphertext(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulPlainAddInto(&acc, ct, pt)
	}
}

func BenchmarkBFVMatVec(b *testing.B) {
	// Ablation target: packed matvec vs the naive one-value-per-ciphertext
	// approach (which would need `in` ciphertext ops per output).
	p := testParams
	rng := rand.New(rand.NewSource(46))
	_, pk := KeyGen(p, newSeeded(47))
	enc := NewEncryptor(p, pk, newSeeded(48))
	e := NewEncoder(p)

	out, in := 64, 1024
	w := make([][]uint64, out)
	for r := range w {
		w[r] = make([]uint64, in)
		for c := range w[r] {
			w[r][c] = rng.Uint64() % 256
		}
	}
	x := make([]uint64, in)
	pl := PlanMatVec(p, out, in)
	cts := pl.EncryptVector(enc, x)
	pts := pl.EncodeMatrix(e, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Apply(pts, cts)
	}
}

// The kernels below are test-only references: NoiseBudget measures a
// ciphertext's headroom, EncryptCoeffs and DecryptCoeffs are the
// one-ciphertext operations the batched ones must equal, and AddCtInto and
// MulPlainAddInto are the fully reduced operations the lazy matvec path is
// checked against.

// NoiseBudget returns the remaining noise budget in bits for a ciphertext
// known to encrypt message m: log2(q/(2t)) - log2(|noise|). Decryption of a
// single value fails when this reaches zero.
func (d *Decryptor) NoiseBudget(ct Ciphertext, m []uint64) int {
	p := d.params
	n := p.N

	phase := make([]uint64, n)
	ringq.MulInto(phase, ct.c1, d.sk.s)
	ringq.AddInto(phase, phase, ct.c0)
	p.ntt.Inverse(phase)

	maxNoise := uint64(0)
	for i := range phase {
		var mi uint64
		if i < len(m) {
			mi = m[i]
		}
		diff := ringq.Sub(phase[i], ringq.Mul(mi, p.delta))
		// Centered magnitude.
		if diff > ringq.Q/2 {
			diff = ringq.Q - diff
		}
		if diff > maxNoise {
			maxNoise = diff
		}
	}
	limit := p.delta / 2
	if maxNoise >= limit {
		return 0
	}
	return bits.Len64(limit) - bits.Len64(maxNoise)
}

// AddCtInto accumulates b into a in place.
func AddCtInto(a *Ciphertext, b Ciphertext) {
	ringq.AddInto(a.c0, a.c0, b.c0)
	ringq.AddInto(a.c1, a.c1, b.c1)
}

// MulPlainAddInto accumulates ct*pt into acc with fully reduced arithmetic,
// where pt was prepared with EncodeMulNTT (centered lift, NTT domain): the
// product decrypts to the negacyclic convolution of the two messages mod T,
// the only multiplication the DELPHI offline phase requires. The matvec hot
// path uses AccumulateMulPlain instead; this remains as the reference kernel
// the lazy path is tested against.
func MulPlainAddInto(acc *Ciphertext, ct Ciphertext, pt Plaintext) {
	for i := range acc.c0 {
		acc.c0[i] = ringq.Add(acc.c0[i], ringq.Mul(ct.c0[i], pt.coeffs[i]))
		acc.c1[i] = ringq.Add(acc.c1[i], ringq.Mul(ct.c1[i], pt.coeffs[i]))
	}
}

// EncryptCoeffs encrypts a message given as raw coefficients in [0, T).
// len(m) may be at most N; shorter messages are zero-padded.
func (e *Encryptor) EncryptCoeffs(m []uint64) Ciphertext {
	p := e.params
	n := p.N
	if len(m) > n {
		panic("bfv: message longer than ring degree")
	}

	// Scale message by Delta into Z_q, then move to the NTT domain. The
	// message and noise polynomials are scratch — only c0/c1 survive — so
	// they come from the shared buffer pool.
	dm := getScratch(n)
	defer putScratch(dm)
	for i, v := range m {
		if v >= p.T {
			panic("bfv: message coefficient out of plaintext range")
		}
		dm[i] = ringq.Mul(v, p.delta)
	}
	p.ntt.Forward(dm)

	u := getScratch(n)
	defer putScratch(u)
	e.smp.ternary(u)
	p.ntt.Forward(u)

	e1 := getScratch(n)
	defer putScratch(e1)
	e.smp.cbd(e1)
	p.ntt.Forward(e1)

	e2 := getScratch(n)
	defer putScratch(e2)
	e.smp.cbd(e2)
	p.ntt.Forward(e2)

	c0 := make([]uint64, n)
	ringq.MulInto(c0, e.pk.b, u)
	ringq.AddInto(c0, c0, e1)
	ringq.AddInto(c0, c0, dm)

	c1 := make([]uint64, n)
	ringq.MulInto(c1, e.pk.a, u)
	ringq.AddInto(c1, c1, e2)

	return Ciphertext{c0: c0, c1: c1}
}

// DecryptCoeffs returns the message coefficients in [0, T).
func (d *Decryptor) DecryptCoeffs(ct Ciphertext) []uint64 {
	p := d.params
	n := p.N

	phase := getScratch(n)
	defer putScratch(phase)
	ringq.MulInto(phase, ct.c1, d.sk.s)
	ringq.AddInto(phase, phase, ct.c0)
	p.ntt.Inverse(phase)

	out := make([]uint64, n)
	roundPhaseToT(out, phase, p.T)
	return out
}
