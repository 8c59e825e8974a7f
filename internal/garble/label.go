// Package garble implements Yao garbled circuits for boolcirc circuits with
// the two standard optimizations the paper's protocol uses (§2.1.3):
// FreeXOR (XOR gates cost nothing) and half-gates (two 128-bit ciphertexts
// per AND gate). Labels are 128 bits; the hash is a correlation-robust
// construction from AES under a public key (crypto/aes), H(x, i) = π(σ(x)
// ⊕ i) ⊕ σ(x) ⊕ i with σ a linear doubling in GF(2^128). GarbleBatch draws
// a per-unit offset R and, like Eval, hashes under one fixed key; a caller
// may give both instead (Fixed.R, Fixed.Hash, EvalBatch's h), as delphi does:
// its offset is the OT extension's s, shared by every unit the base-OT
// state ever garbles, and its key is a pre-compute's own.
//
// Both cores work layer-major: a layer is many units (instances) of one
// circuit, and the garbler and the evaluator walk the gate list once per
// chunk of up to 16 units rather than once per unit. A chunk's labels live
// wire-major in one byte slab, wire w of unit u at (w·k + u)·16 for a chunk
// of k units, so an XOR gate is one subtle.XORBytes over the k labels of its
// output wire, and an AND gate stages the hash inputs of all k units and
// hashes them with one Hasher.HashBatch call. Tweaks, entropy order and
// therefore tables, decode bits and encodings are those of garbling the units
// one at a time.
//
// The cores take and give a layer flat, in the bytes it travels in (Layer):
// the garbler writes every unit's tables and its packed decode bits where
// the caller points it, a frame it is about to send, and the evaluator reads
// them where they lie, the frame it received, through (*Label)(b[i:]) views.
// Neither copies a table. Each unit reads only the entropy it uses: a label
// for each input the caller does not pin (Fixed), and R unless given, so a
// garbler that is given everything reads nothing. GarbleBatch, GarbleInto
// and Eval keep the per-unit form (Garbled) on top of the flat cores.
package garble

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
)

// LabelSize is the wire-label size in bytes (the security parameter / 8).
const LabelSize = 16

// Label is a 128-bit wire label. The least-significant bit of byte 0 is the
// point-and-permute color bit.
type Label [LabelSize]byte

// words is a label as two little-endian 64-bit words; lo holds bytes 0–7 and
// so the color bit. The cores and the hash compute on words, read from and
// written to the label in place: a two-word struct lives in registers, while
// a Label value is an array in memory, and one built by two 8-byte stores
// and then moved as a 16-byte block stalls on the stores still in flight.
type words struct{ lo, hi uint64 }

func load(l *Label) words {
	return words{binary.LittleEndian.Uint64(l[0:8]), binary.LittleEndian.Uint64(l[8:16])}
}

func (x words) store(l *Label) {
	binary.LittleEndian.PutUint64(l[0:8], x.lo)
	binary.LittleEndian.PutUint64(l[8:16], x.hi)
}

func (x words) xor(y words) words { return words{x.lo ^ y.lo, x.hi ^ y.hi} }

func (x words) and(m uint64) words { return words{x.lo & m, x.hi & m} }

// colorMask is all ones when the color bit is set and zero otherwise: the
// cores select with it, since a branch on a uniformly random bit mispredicts
// half the time.
func (x words) colorMask() uint64 { return -(x.lo & 1) }

// double computes σ(x) = 2·x in GF(2^128) with the standard x^128 + x^7 +
// x^2 + x + 1 reduction, on the label read as a big-endian field element
// (byte 0 most significant, as in CMAC subkey derivation) whose big-endian
// words are hi and lo. σ is linear, which the half-gates security proof
// requires of the hash's input mixing.
func double(hi, lo uint64) (uint64, uint64) {
	return hi<<1 | lo>>63, lo<<1 ^ 0x87&-(hi>>63)
}

// Hasher is the fixed-key-AES correlation-robust hash, the one symmetric
// primitive of the garbling scheme and of internal/ot's extension. Its one
// implementation is HashBatch, which hashes a contiguous run of labels: the
// garbler's four and the evaluator's two hashes of an AND gate for a whole
// chunk of units at once, and the extension's pads for a whole batch of OTs.
// Hash is the run of one. The AES output block and Hash's one-label run live
// in the struct, so the slices handed to cipher.Block.Encrypt (an interface
// call the escape analyzer cannot see through) never force a per-hash heap
// allocation: hold a Hasher by value in a heap object and every call is
// allocation-free. Methods use a pointer receiver and are NOT safe for
// concurrent use; each garbling, evaluating or OT goroutine owns its Hasher.
type Hasher struct {
	block cipher.Block
	out   Label
	one   [1]Label
	tweak [1]uint64
}

// fixedKey is the public fixed AES key. Any fixed constant works; this is
// the SHA-256 prefix of "privinf garbling v1" truncated to 16 bytes.
var fixedKey = [16]byte{
	0x5f, 0x1c, 0x9a, 0x3e, 0x27, 0xb4, 0x60, 0xd8,
	0x44, 0x0b, 0x8f, 0x72, 0xe1, 0x95, 0x3a, 0xc6,
}

// NewHasher returns a Hasher keyed with the public fixed key.
func NewHasher() Hasher { return KeyedHasher(fixedKey) }

// KeyedHasher returns a Hasher keyed with key, a public key of its own: the
// hash is then an independent permutation's, so hashes under distinct keys
// need no tweak apart (delphi keys each pre-compute's garbling).
func KeyedHasher(key [LabelSize]byte) Hasher {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("garble: aes init failed: " + err.Error())
	}
	return Hasher{block: block}
}

// Hash computes H(x, index) = π(σ(x) ⊕ i) ⊕ σ(x) ⊕ i, as a run of one.
// Callers partition the tweak space: garbling uses gate indices below 2^63,
// internal/ot sets bit 63.
func (h *Hasher) Hash(x Label, index uint64) Label {
	h.one[0], h.tweak[0] = x, index
	h.HashBatch(h.one[:], h.one[:], h.tweak[:])
	return h.one[0]
}

// HashBatch sets dst[k] = H(src[k], tweaks[k]) for every k; dst may be src.
// It forms every σ(x) ⊕ i of the run in dst first (the index in the low 8
// bytes, little-endian) and only then runs AES block by block, each block
// followed by its output XOR: AES then reads inputs stored long before
// rather than ones still in flight, which is most of what a lone Hash pays
// over AES. It panics unless the three slices have one length.
func (h *Hasher) HashBatch(dst, src []Label, tweaks []uint64) {
	if len(dst) != len(src) || len(tweaks) != len(src) {
		panic("garble: HashBatch slices differ in length")
	}
	for k := range src {
		x := &src[k]
		hi, lo := double(binary.BigEndian.Uint64(x[0:8]), binary.BigEndian.Uint64(x[8:16]))
		// A big-endian word read little-endian is its byte reversal.
		words{bits.ReverseBytes64(hi) ^ tweaks[k], bits.ReverseBytes64(lo)}.store(&dst[k])
	}
	for k := range dst {
		h.block.Encrypt(h.out[:], dst[k][:])
		load(&dst[k]).xor(load(&h.out)).store(&dst[k])
	}
}
