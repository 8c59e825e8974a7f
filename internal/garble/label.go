// Package garble implements Yao garbled circuits for boolcirc circuits with
// the two standard optimizations the paper's protocol uses (§2.1.3):
// FreeXOR (XOR gates cost nothing) and half-gates (two 128-bit ciphertexts
// per AND gate). Labels are 128 bits; the hash is a correlation-robust
// construction from fixed-key AES (crypto/aes), H(x, i) = π(σ(x) ⊕ i) ⊕
// σ(x) ⊕ i with σ a linear doubling in GF(2^128).
package garble

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"io"
)

// LabelSize is the wire-label size in bytes (the security parameter / 8).
const LabelSize = 16

// Label is a 128-bit wire label. The least-significant bit of byte 0 is the
// point-and-permute color bit.
type Label [LabelSize]byte

// xor returns a ⊕ b, as two 64-bit word XORs.
func (a Label) xor(b Label) Label {
	lo := binary.LittleEndian.Uint64(a[0:8]) ^ binary.LittleEndian.Uint64(b[0:8])
	hi := binary.LittleEndian.Uint64(a[8:16]) ^ binary.LittleEndian.Uint64(b[8:16])
	var out Label
	binary.LittleEndian.PutUint64(out[0:8], lo)
	binary.LittleEndian.PutUint64(out[8:16], hi)
	return out
}

// color returns the point-and-permute bit.
func (a Label) color() byte { return a[0] & 1 }

// double computes σ(x) = 2·x in GF(2^128) with the standard x^128 + x^7 +
// x^2 + x + 1 reduction, interpreting the label as a big-endian field
// element (as in CMAC subkey derivation). σ is linear, which the
// half-gates security proof requires of the hash's input mixing. The
// big-endian 64-bit word shift below is bit-identical to the byte-carry
// loop it replaced (byte 0 is most significant in both).
func (a Label) double() Label {
	hi := binary.BigEndian.Uint64(a[0:8])
	lo := binary.BigEndian.Uint64(a[8:16])
	carry := hi >> 63
	hi = hi<<1 | lo>>63
	lo <<= 1
	if carry == 1 {
		lo ^= 0x87
	}
	var out Label
	binary.BigEndian.PutUint64(out[0:8], hi)
	binary.BigEndian.PutUint64(out[8:16], lo)
	return out
}

// Hasher is the fixed-key-AES correlation-robust hash, the one symmetric
// primitive of the garbling scheme and of internal/ot's extension. The
// in/out scratch blocks live in the struct so the slices handed to
// cipher.Block.Encrypt (an interface call the escape analyzer cannot see
// through) never force a per-hash heap allocation: hold a Hasher by value
// in a heap object and every Hash call is allocation-free. Methods use a
// pointer receiver and are NOT safe for concurrent use; each garbling,
// evaluating or OT goroutine owns its Hasher.
type Hasher struct {
	block   cipher.Block
	in, out [LabelSize]byte
}

// fixedKey is the public fixed AES key. Any fixed constant works; this is
// the SHA-256 prefix of "privinf garbling v1" truncated to 16 bytes.
var fixedKey = [16]byte{
	0x5f, 0x1c, 0x9a, 0x3e, 0x27, 0xb4, 0x60, 0xd8,
	0x44, 0x0b, 0x8f, 0x72, 0xe1, 0x95, 0x3a, 0xc6,
}

// NewHasher returns a Hasher keyed with the public fixed key.
func NewHasher() Hasher {
	block, err := aes.NewCipher(fixedKey[:])
	if err != nil {
		panic("garble: aes init failed: " + err.Error())
	}
	return Hasher{block: block}
}

// Hash computes H(x, index) = π(σ(x) ⊕ i) ⊕ σ(x) ⊕ i. Callers partition the
// tweak space: garbling uses gate indices below 2^63, internal/ot sets bit 63.
func (h *Hasher) Hash(x Label, index uint64) Label {
	t := x.double()
	// in = σ(x) ⊕ i, with the index in the low 8 bytes (little-endian).
	inLo := binary.LittleEndian.Uint64(t[0:8]) ^ index
	inHi := binary.LittleEndian.Uint64(t[8:16])
	binary.LittleEndian.PutUint64(h.in[0:8], inLo)
	binary.LittleEndian.PutUint64(h.in[8:16], inHi)
	h.block.Encrypt(h.out[:], h.in[:])
	var out Label
	binary.LittleEndian.PutUint64(out[0:8], binary.LittleEndian.Uint64(h.out[0:8])^inLo)
	binary.LittleEndian.PutUint64(out[8:16], binary.LittleEndian.Uint64(h.out[8:16])^inHi)
	return out
}

// randomLabel draws a fresh uniform label from src (crypto/rand if nil).
func randomLabel(src io.Reader) Label {
	if src == nil {
		src = rand.Reader
	}
	var l Label
	if _, err := io.ReadFull(src, l[:]); err != nil {
		panic("garble: entropy source failed: " + err.Error())
	}
	return l
}
