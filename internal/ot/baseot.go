// Package ot implements 1-out-of-2 oblivious transfer: a handful of
// public-key base OTs (Chou–Orlandi style over a classic Diffie-Hellman
// group, baseot.go) extended to any number of symmetric-key OTs with the
// IKNP protocol (iknp.go), the structure §2.1.4 of the paper describes. The
// PI protocol uses it to deliver garbled-circuit input labels for the
// evaluator's share bits; under Client-Garbler that transfer is on the online
// path, so the extension is written as a kernel.
//
// # The extension kernel
//
// One batch of m OTs works on a bit matrix of kappa = 128 rows by m columns,
// row i being the next m bits of the AES-CTR stream keyed with base-OT seed
// i. Rows are padded to whole bytes (mBytes = ⌈m/8⌉; a stream advances
// mBytes per batch, so padding bits are spent, never reused) and held
// row-major in one flat slab: row i is slab[i*mBytes:(i+1)*mBytes], column j
// of it is bit j%8 (least significant first) of byte j/8. A Message holds
// one column: bit i%8 of byte i/8 is row i. The same order packs the choice
// bits r, the sender's correlation bits s, and each row of the correction
// frame u the receiver sends (kappa rows of mBytes bytes, row-major; row i is
// t_i ⊕ PRG(k_i^1) ⊕ r, built in one pass). The sender's answer y is m pairs
// of 16-byte ciphertexts, y_j^0 then y_j^1.
//
// transpose turns rows into columns on 8×8 bit tiles: one byte from each of 8
// rows gathered into a uint64, three masked shift-xor rounds, one byte
// scattered to each of 8 Messages. The column byte is the outer loop, so a
// step reads one byte of all 128 rows and completes 8 Messages.
//
// The per-OT pad is H(column, tweak) with H the fixed-key-AES hash of
// internal/garble (garble.Hasher, one held by value per endpoint) and tweak
// the session-wide OT index with bit 63 set. Garbling tweaks are gate
// indices below 2^63, so no (input, tweak) pair the extension hashes can
// also be a garbling query. docs/invariants.md says why that hash suffices.
//
// # Buffers
//
// A batch's buffers (slab, transposed columns, packed choice bits, the u or y
// frame it builds) are allocated by the batch and dropped with it: seven
// allocations a round whatever m is, none per OT. Keeping them on the
// endpoint between batches was measured and bought 0.08 ms of an 11.2 ms
// inference for 3 MiB (9 %) of resident set per serving process, so they
// are not kept (docs/perf.md). None of them aliases a frame returned by
// Recv, which belongs to the transport. Receive returns a slice the caller
// owns — the transpose writes columns straight into it and the pads are
// XORed in place — and Send only reads its argument. Neither endpoint is
// safe for concurrent use.
//
// # Errors
//
// A frame of the wrong length is a *FrameSizeError, raised before anything
// is indexed by it. Whatever the cause, the first failed Send or Receive
// poisons its endpoint: the parties' streams and OT index are out of step
// from then on and a later batch would deliver garbage labels, so every
// later call — empty batches included — returns the first error and touches
// neither the connection nor the streams. Recover with a new session
// (ResumeSender/ResumeReceiver under a fresh nonce, resume.go).
package ot

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"privinf/internal/garble"
	"privinf/internal/transport"
)

// KeySize is the OT message size in bytes; it matches the garbled-circuit
// label size so labels transfer without re-encryption.
const KeySize = garble.LabelSize

// Message is one OT payload: a wire label, under its OT name.
type Message = garble.Label

// modp1536 is the RFC 3526 group 5 prime (1536-bit MODP). A classic DH
// group keeps the base OT in pure stdlib (math/big); only 128 base OTs run
// per session, so the exponentiation cost is a fixed, small setup charge.
const modp1536Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"

var (
	groupP = mustHexBig(modp1536Hex)
	groupG = big.NewInt(2)
	// groupQ = (p-1)/2, the order of the subgroup of squares.
	groupQ = new(big.Int).Rsh(new(big.Int).Sub(groupP, big.NewInt(1)), 1)
)

func mustHexBig(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("ot: bad group constant")
	}
	return v
}

func randScalar(src io.Reader) *big.Int {
	if src == nil {
		src = rand.Reader
	}
	v, err := rand.Int(src, groupQ)
	if err != nil {
		panic("ot: entropy source failed: " + err.Error())
	}
	return v
}

// deriveKey hashes a group element (plus the OT index and a direction tag)
// into a pad for one message.
func deriveKey(elem *big.Int, index int) Message {
	h := sha256.New()
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], uint64(index))
	h.Write(idx[:])
	h.Write(elem.Bytes())
	var out Message
	copy(out[:], h.Sum(nil))
	return out
}

func xorMsg(a, b Message) Message {
	var out Message
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// BaseSend runs the sender side of n base OTs over conn, transferring
// pairs[i][choice] obliviously. src may be nil (crypto/rand).
func BaseSend(conn transport.MsgConn, pairs [][2]Message, src io.Reader) error {
	a := randScalar(src)
	bigA := new(big.Int).Exp(groupG, a, groupP)
	if err := conn.Send(bigA.Bytes()); err != nil {
		return err
	}

	// A^-a mod p, used to derive the choice-1 keys.
	aInvExp := new(big.Int).Exp(bigA, a, groupP)
	aInvExp.ModInverse(aInvExp, groupP)

	raw, err := conn.Recv()
	if err != nil {
		return err
	}
	elemLen := (groupP.BitLen() + 7) / 8
	if len(raw) != elemLen*len(pairs) {
		return fmt.Errorf("ot: base OT receiver sent %d bytes, want %d", len(raw), elemLen*len(pairs))
	}

	out := make([]byte, 0, 2*KeySize*len(pairs))
	for i := range pairs {
		bI := new(big.Int).SetBytes(raw[i*elemLen : (i+1)*elemLen])
		if bI.Cmp(big.NewInt(1)) <= 0 || bI.Cmp(groupP) >= 0 {
			return fmt.Errorf("ot: base OT element %d out of range", i)
		}
		bA := new(big.Int).Exp(bI, a, groupP) // B^a
		k0 := deriveKey(bA, i)
		k1 := deriveKey(new(big.Int).Mod(new(big.Int).Mul(bA, aInvExp), groupP), i) // (B/A)^a
		e0 := xorMsg(k0, pairs[i][0])
		e1 := xorMsg(k1, pairs[i][1])
		out = append(out, e0[:]...)
		out = append(out, e1[:]...)
	}
	return conn.Send(out)
}

// BaseReceive runs the receiver side of len(choices) base OTs, returning
// the chosen message of each pair.
func BaseReceive(conn transport.MsgConn, choices []bool, src io.Reader) ([]Message, error) {
	rawA, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	bigA := new(big.Int).SetBytes(rawA)
	if bigA.Cmp(big.NewInt(1)) <= 0 || bigA.Cmp(groupP) >= 0 {
		return nil, fmt.Errorf("ot: base OT sender element out of range")
	}

	elemLen := (groupP.BitLen() + 7) / 8
	buf := make([]byte, 0, elemLen*len(choices))
	secrets := make([]*big.Int, len(choices))
	for i, c := range choices {
		b := randScalar(src)
		secrets[i] = b
		bI := new(big.Int).Exp(groupG, b, groupP)
		if c {
			bI.Mul(bI, bigA).Mod(bI, groupP)
		}
		elem := bI.FillBytes(make([]byte, elemLen))
		buf = append(buf, elem...)
	}
	if err := conn.Send(buf); err != nil {
		return nil, err
	}

	enc, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(enc) != 2*KeySize*len(choices) {
		return nil, fmt.Errorf("ot: base OT sender sent %d bytes, want %d", len(enc), 2*KeySize*len(choices))
	}

	out := make([]Message, len(choices))
	for i, c := range choices {
		k := deriveKey(new(big.Int).Exp(bigA, secrets[i], groupP), i) // A^b
		var e Message
		off := i * 2 * KeySize
		if c {
			off += KeySize
		}
		copy(e[:], enc[off:off+KeySize])
		out[i] = xorMsg(k, e)
	}
	return out, nil
}
