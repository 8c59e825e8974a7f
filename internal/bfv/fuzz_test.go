package bfv

import (
	"encoding"
	"testing"

	"privinf/internal/bin/bintest"
)

// smallParams keeps fuzz inputs a few hundred bytes so mutation reaches
// every field.
var smallParams = mustParams(16, 65537)

// smallPlan's last response is partial: 5 rows at 2 a response.
var smallPlan = PlanMatVec(smallParams, 5, 6)

func FuzzUploadUnmarshal(f *testing.F) {
	sk, _ := KeyGen(smallParams, newSeeded(51))
	raw, err := NewSeededEncryptor(smallParams, sk, newSeeded(52)).EncryptCoeffs([]uint64{1, 2, 3}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	bintest.FuzzRoundTrip(f, raw, func(data []byte) (encoding.BinaryMarshaler, error) {
		return smallParams.ParseUpload(data)
	})
}

func FuzzResponseUnmarshal(f *testing.F) {
	sk, pk := KeyGen(smallParams, newSeeded(55))
	up := NewSeededEncryptor(smallParams, sk, newSeeded(56)).EncryptCoeffs([]uint64{4, 5, 6})
	last := smallPlan.NumOutputCts() - 1
	raw, err := smallPlan.Respond(ptr(up.Ciphertext()), []uint64{1, 2, 3, 4, 5}, last, pk.Expand(), [SeedSize]byte{2}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	bintest.FuzzRoundTrip(f, raw, func(data []byte) (encoding.BinaryMarshaler, error) {
		return smallPlan.ParseResponse(data, last)
	})
}

// FuzzPublicKeyUnmarshal fuzzes the seeded public-key record, seed ‖ b,
// the key flight every connect sends.
func FuzzPublicKeyUnmarshal(f *testing.F) {
	_, pk := KeyGen(smallParams, newSeeded(53))
	raw, err := pk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	bintest.FuzzRoundTrip(f, raw, func(data []byte) (encoding.BinaryMarshaler, error) {
		return ParsePublicKey(smallParams.N, data)
	})
}

// TestCiphertextCodecAllocs pins the offline HE path's codec cost: one
// exact-size buffer to encode either record, its coefficient vectors to
// decode it.
func TestCiphertextCodecAllocs(t *testing.T) {
	p := testParams
	sk, pk := KeyGen(p, newSeeded(54))
	up := NewSeededEncryptor(p, sk, newSeeded(55)).EncryptCoeffs([]uint64{1, 2, 3})
	raw, err := up.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pl := PlanMatVec(p, 40, 300)
	resp := pl.Respond(ptr(up.Ciphertext()), make([]uint64, pl.Out), 0, pk.Expand(), [SeedSize]byte{3})
	rraw, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		f    func()
		want float64
	}{
		{"Upload.MarshalBinary", func() { up.MarshalBinary() }, 1},
		{"ParseUpload", func() { p.ParseUpload(raw) }, 1},
		{"Response.MarshalBinary", func() { resp.MarshalBinary() }, 1},
		{"ParseResponse", func() { pl.ParseResponse(rraw, 0) }, 2},
	} {
		if n := testing.AllocsPerRun(20, c.f); n != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, n, c.want)
		}
	}
}
