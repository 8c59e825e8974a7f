package bfv

import (
	"math/rand"
	"testing"
)

// TestEncryptCoeffsBatchMatchesSequential pins the batch encryptor against
// per-message EncryptCoeffs bit-for-bit: same entropy stream, same
// ciphertexts, for assorted batch sizes and message lengths.
func TestEncryptCoeffsBatchMatchesSequential(t *testing.T) {
	p := testParams
	rng := rand.New(rand.NewSource(60))
	_, pk := KeyGen(p, newSeeded(61))

	for _, count := range []int{0, 1, 2, 5, 9} {
		msgs := make([][]uint64, count)
		for i := range msgs {
			ln := 1 + rng.Intn(p.N)
			if i == 0 {
				ln = p.N
			}
			msgs[i] = randomMessage(rng, p, ln)
		}

		seqEnc := NewEncryptor(p, pk, newSeeded(62))
		seq := make([]Ciphertext, count)
		for i, m := range msgs {
			seq[i] = seqEnc.EncryptCoeffs(m)
		}

		batchEnc := NewEncryptor(p, pk, newSeeded(62))
		got := batchEnc.EncryptCoeffsBatch(msgs)
		if len(got) != count {
			t.Fatalf("count=%d: got %d ciphertexts", count, len(got))
		}
		for i := range seq {
			for j := range seq[i].c0 {
				if got[i].c0[j] != seq[i].c0[j] || got[i].c1[j] != seq[i].c1[j] {
					t.Fatalf("count=%d ct=%d coeff=%d: batch differs from sequential", count, i, j)
				}
			}
		}
	}
}

// TestDecryptCoeffsBatchMatchesSequential: batch decryption is bit-identical
// to per-ciphertext DecryptCoeffs.
func TestDecryptCoeffsBatchMatchesSequential(t *testing.T) {
	p := testParams
	rng := rand.New(rand.NewSource(63))
	sk, pk := KeyGen(p, newSeeded(64))
	enc := NewEncryptor(p, pk, newSeeded(65))
	dec := NewDecryptor(p, sk)

	cts := make([]Ciphertext, 7)
	for i := range cts {
		cts[i] = enc.EncryptCoeffs(randomMessage(rng, p, p.N))
	}
	got := dec.DecryptCoeffsBatch(cts)
	for i, ct := range cts {
		want := dec.DecryptCoeffs(ct)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("ct=%d coeff=%d: batch decrypt differs", i, j)
			}
		}
	}
	if out := dec.DecryptCoeffsBatch(nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

// TestAccumulateMulPlainMatchesReference: the lazy fused kernel plus one
// canonicalizeCt equals a chain of fully reduced MulPlainAddInto calls.
func TestAccumulateMulPlainMatchesReference(t *testing.T) {
	p := testParams
	rng := rand.New(rand.NewSource(66))
	_, pk := KeyGen(p, newSeeded(67))
	enc := NewEncryptor(p, pk, newSeeded(68))
	e := NewEncoder(p)

	cts := make([]Ciphertext, 6)
	pts := make([]Plaintext, 6)
	for i := range cts {
		cts[i] = enc.EncryptCoeffs(randomMessage(rng, p, p.N))
		pts[i] = e.EncodeMulNTT(randomMessage(rng, p, p.N))
	}

	lazy := ZeroCiphertext(p)
	ref := ZeroCiphertext(p)
	for i := range cts {
		AccumulateMulPlain(&lazy, cts[i], pts[i])
		MulPlainAddInto(&ref, cts[i], pts[i])
	}
	canonicalizeCt(&lazy)
	for j := range ref.c0 {
		if lazy.c0[j] != ref.c0[j] || lazy.c1[j] != ref.c1[j] {
			t.Fatalf("coeff %d: lazy accumulation differs from reference", j)
		}
	}
}

// BenchmarkMatVecOnline measures the recurring per-layer server cost of an
// encrypted matvec: Apply over pre-encoded weights and pre-encrypted inputs
// (the AccumulateMulPlain hot loop), excluding one-time encode/encrypt.
func BenchmarkMatVecOnline(b *testing.B) {
	p := testParams
	rng := rand.New(rand.NewSource(70))
	_, pk := KeyGen(p, newSeeded(71))
	enc := NewEncryptor(p, pk, newSeeded(72))
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
	for i := range x {
		x[i] = rng.Uint64() % p.T
	}
	pl := PlanMatVec(p, out, in)
	cts := pl.EncryptVector(enc, x)
	pts := pl.EncodeMatrix(e, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Apply(pts, cts)
	}
}

func BenchmarkEncryptBatch(b *testing.B) {
	p := testParams
	_, pk := KeyGen(p, newSeeded(73))
	enc := NewEncryptor(p, pk, newSeeded(74))
	msgs := make([][]uint64, 8)
	for i := range msgs {
		msgs[i] = make([]uint64, p.N)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncryptCoeffsBatch(msgs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(msgs)), "ns/ct")
}
