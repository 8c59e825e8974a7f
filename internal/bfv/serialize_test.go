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
