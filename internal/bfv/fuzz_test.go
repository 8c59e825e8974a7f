package bfv

import (
	"encoding"
	"testing"

	"privinf/internal/bin/bintest"
)

// smallParams keeps fuzz inputs a few hundred bytes so mutation reaches the
// header words.
var smallParams = mustParams(16, 65537)

func FuzzCiphertextUnmarshal(f *testing.F) {
	_, pk := KeyGen(smallParams, newSeeded(51))
	raw, err := NewEncryptor(smallParams, pk, newSeeded(52)).EncryptCoeffs([]uint64{1, 2, 3}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	bintest.FuzzRoundTrip(f, raw, func(data []byte) (encoding.BinaryMarshaler, error) {
		ct := new(Ciphertext)
		return ct, ct.UnmarshalBinary(data)
	})
}

func FuzzPublicKeyUnmarshal(f *testing.F) {
	_, pk := KeyGen(smallParams, newSeeded(53))
	raw, err := pk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	bintest.FuzzRoundTrip(f, raw, func(data []byte) (encoding.BinaryMarshaler, error) {
		pk := new(PublicKey)
		return pk, pk.UnmarshalBinary(data)
	})
}

// TestCiphertextCodecAllocs pins the offline HE path's codec cost: one
// exact-size buffer to encode, the two coefficient vectors to decode.
func TestCiphertextCodecAllocs(t *testing.T) {
	_, pk := KeyGen(testParams, newSeeded(54))
	ct := NewEncryptor(testParams, pk, newSeeded(55)).EncryptCoeffs([]uint64{1, 2, 3})
	raw, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { ct.MarshalBinary() }); n != 1 {
		t.Errorf("Ciphertext.MarshalBinary: %v allocs/op, want 1", n)
	}
	var got Ciphertext
	if n := testing.AllocsPerRun(20, func() { got.UnmarshalBinary(raw) }); n != 2 {
		t.Errorf("Ciphertext.UnmarshalBinary: %v allocs/op, want 2", n)
	}
}
