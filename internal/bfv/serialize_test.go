package bfv

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"privinf/internal/field"
)

// TestPlaintextRoundTrip: encoded plaintexts (both the NTT-domain weight
// form and the scaled additive form) survive marshal → unmarshal
// bit-exactly. These are the payloads the model-artifact disk format
// carries, so this is the codec's base case.
func TestPlaintextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEncoder(testParams)
	for i := 0; i < 8; i++ {
		m := randomMessage(rng, testParams, testParams.N)
		for _, pt := range []Plaintext{e.EncodeMulNTT(m), e.EncodeAddNTT(m)} {
			raw, err := pt.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var got Plaintext
			if err := got.UnmarshalBinary(raw); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pt, got) {
				t.Fatalf("plaintext %d did not round-trip", i)
			}
		}
	}
}

// TestPlaintextUnmarshalRejectsDamage: truncation, length inconsistency and
// empty payloads error instead of panicking or silently mis-decoding.
func TestPlaintextUnmarshalRejectsDamage(t *testing.T) {
	e := NewEncoder(testParams)
	raw, err := e.EncodeMulNTT(make([]uint64, testParams.N)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// A stored degree chosen so 8+8*n overflows back to the payload length
	// must not defeat the consistency check and reach allocation.
	overflow := make([]byte, 16)
	binary.LittleEndian.PutUint64(overflow, 1<<61+1)
	for name, data := range map[string][]byte{
		"empty":           {},
		"short header":    raw[:5],
		"truncated body":  raw[:len(raw)-8],
		"trailing junk":   append(append([]byte(nil), raw...), 1, 2, 3),
		"degree overflow": overflow,
	} {
		var pt Plaintext
		if err := pt.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: unmarshal accepted damaged payload", name)
		}
	}

	var ct Ciphertext
	if err := ct.UnmarshalBinary(append(append([]byte(nil), overflow...), overflow...)); err == nil {
		t.Error("ciphertext unmarshal accepted an overflowing degree")
	}
	var pk PublicKey
	if err := pk.UnmarshalBinary(append(append([]byte(nil), overflow...), overflow...)); err == nil {
		t.Error("public key unmarshal accepted an overflowing degree")
	}
}

// TestMatVecPlanRoundTrip: plans for a spread of matrix shapes (chunked
// inputs, packed outputs, degenerate single-row) round-trip to deep-equal
// values, including the reconstructed Params.
func TestMatVecPlanRoundTrip(t *testing.T) {
	shapes := []struct{ out, in int }{
		{10, 64}, {64, 4096}, {100, 8192}, {1, 1}, {4096, 10}, {17, 300},
	}
	for _, s := range shapes {
		pl := PlanMatVec(testParams, s.out, s.in)
		raw, err := pl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got MatVecPlan
		if err := got.UnmarshalBinary(raw); err != nil {
			t.Fatalf("shape %dx%d: %v", s.out, s.in, err)
		}
		if !reflect.DeepEqual(pl, got) {
			t.Fatalf("shape %dx%d did not round-trip: %+v vs %+v", s.out, s.in, pl, got)
		}
	}
}

// TestMatVecPlanUnmarshalRejectsDamage: wrong length, invalid parameters,
// and geometry inconsistent with the stored shape are all rejected — a
// corrupted plan must not drive the packing math out of bounds.
func TestMatVecPlanUnmarshalRejectsDamage(t *testing.T) {
	pl := PlanMatVec(testParams, 64, 4096)
	raw, err := pl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var got MatVecPlan
	if err := got.UnmarshalBinary(raw[:len(raw)-1]); err == nil {
		t.Error("unmarshal accepted a truncated plan")
	}

	badParams := append([]byte(nil), raw...)
	badParams[0] = 0xFF // N no longer a power of two
	if err := got.UnmarshalBinary(badParams); err == nil {
		t.Error("unmarshal accepted invalid ring degree")
	}

	// A wild (but power-of-two) stored degree must be rejected by the
	// MaxRingDegree bound before any NTT table is built — a decode must
	// never be able to demand gigabytes of twiddle tables.
	hugeN := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(hugeN, 1<<30)
	if err := got.UnmarshalBinary(hugeN); err == nil {
		t.Error("unmarshal accepted a ring degree past MaxRingDegree")
	}

	badGeometry := append([]byte(nil), raw...)
	badGeometry[32]++ // Chunk inconsistent with what PlanMatVec chooses
	if err := got.UnmarshalBinary(badGeometry); err == nil {
		t.Error("unmarshal accepted inconsistent packing geometry")
	}

	zeroShape := append([]byte(nil), raw...)
	for i := 16; i < 24; i++ {
		zeroShape[i] = 0 // In = 0
	}
	if err := got.UnmarshalBinary(zeroShape); err == nil {
		t.Error("unmarshal accepted a zero input dimension")
	}
}

// TestEncodedMatrixRoundTrip: the full weight path — EncodeMatrix under a
// plan, every plaintext marshaled and unmarshaled — reproduces the exact
// NTT-domain coefficients, under both demo fields.
func TestEncodedMatrixRoundTrip(t *testing.T) {
	for _, p := range []uint64{field.P17, field.P20} {
		params := mustParams(DefaultN, p)
		rng := rand.New(rand.NewSource(int64(p)))
		pl := PlanMatVec(params, 12, 300)
		w := make([][]uint64, pl.Out)
		for r := range w {
			w[r] = randomMessage(rng, params, pl.In)
		}
		e := NewEncoder(params)
		pts := pl.EncodeMatrix(e, w)
		for oc := range pts {
			for ic, pt := range pts[oc] {
				raw, err := pt.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var got Plaintext
				if err := got.UnmarshalBinary(raw); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pt, got) {
					t.Fatalf("p=%d: weight plaintext [%d][%d] did not round-trip", p, oc, ic)
				}
			}
		}
	}
}

// TestSecretKeyRoundTrip: the secret key — the one piece of HE key
// material a durable client preamble persists — survives marshal →
// unmarshal bit-exactly, and the reloaded key decrypts ciphertexts made
// under the original's public half.
func TestSecretKeyRoundTrip(t *testing.T) {
	sk, pk := KeyGen(testParams, newSeeded(41))
	raw, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got SecretKey
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sk, got) {
		t.Fatal("secret key did not round-trip")
	}
	re, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, re) {
		t.Fatal("re-encoding differs from original")
	}

	rng := rand.New(rand.NewSource(42))
	m := randomMessage(rng, testParams, testParams.N)
	ct := NewEncryptor(testParams, pk, newSeeded(43)).EncryptCoeffs(m)
	dec := NewDecryptor(testParams, got).DecryptCoeffs(ct)
	if !reflect.DeepEqual(m, dec) {
		t.Fatal("reloaded secret key failed to decrypt")
	}
}

// TestSecretKeyUnmarshalRejectsDamage: truncation, inconsistent length
// headers and trailing bytes all error — a persisted key either reloads
// exactly or not at all.
func TestSecretKeyUnmarshalRejectsDamage(t *testing.T) {
	sk, _ := KeyGen(testParams, newSeeded(44))
	raw, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":              {},
		"short header":       raw[:7],
		"header only":        raw[:8],
		"half payload":       raw[:len(raw)/2],
		"ragged payload":     raw[:len(raw)-3],
		"one coeff short":    raw[:len(raw)-8],
		"trailing byte":      append(append([]byte(nil), raw...), 1),
		"trailing coeff":     append(append([]byte(nil), raw...), make([]byte, 8)...),
		"zero degree":        binary.LittleEndian.AppendUint64(nil, 0),
		"degree overclaimed": binary.LittleEndian.AppendUint64(nil, 1<<40),
	}
	for name, data := range cases {
		var got SecretKey
		if err := got.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
