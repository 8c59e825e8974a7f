// Package ot implements 1-out-of-2 oblivious transfer: kappa = 128 public-key
// base OTs (Chou–Orlandi random OT over NIST P-256, baseot.go) extended to
// any number of symmetric-key OTs with the IKNP protocol (iknp.go), the
// structure §2.1.4 of the paper describes. The PI protocol uses it to deliver
// garbled-circuit input labels for the evaluator's share bits. The extension
// is written as a kernel; under Client-Garbler it runs offline as random OTs
// and only a one-bit derandomization is left on the online path.
//
// # Base OT
//
// IKNP needs only random seeds from its base OTs, so they are random OTs:
// nobody chooses the messages, the protocol hands them out. Roles are
// swapped against the extension: the extension receiver is the base sender
// and ends with both seeds of every OT, the extension sender is the base
// chooser and ends with the seed its correlation bit s_i selects. Two flights:
//
//   - base sender → chooser, "base A": A = aG, one 33-byte compressed point;
//   - chooser → base sender, "base B": kappa compressed points
//     B_i = b_iG, plus A where s_i = 1 (4,224 bytes).
//
// The chooser's seed is KDF(i, A, B_i, b_iA). The base sender's seeds are
// k0 = KDF(i, A, B_i, aB_i) and k1 = KDF(i, A, B_i, aB_i − T) with T = aA
// computed once, so each OT costs it one scalar multiplication and one
// addition. KDF is SHA-256 over a domain tag, the OT index and the three
// points' compressed encodings, truncated to a seed. Scalars are uniform in
// [1, n), so no point this code sends is the identity (a B_i that comes out
// as the identity is redrawn).
//
// Every point a peer sends is validated before it is used, in this order:
// the frame length (a *FrameSizeError), then every point of the frame
// decoded by elliptic.UnmarshalCompressed (on the curve, canonical, never
// the identity; P-256 has cofactor 1, so that is group membership), and
// only then any curve arithmetic — crypto/elliptic panics on a point that is
// not on the curve. docs/invariants.md says why a semi-honest random OT is
// enough here.
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
// bits c, the sender's correlation bits s, and each row of the correction
// frame u the receiver sends (kappa rows of mBytes bytes, row-major; row i is
// t_i ⊕ PRG(k_i^1) ⊕ c, built in one pass). The sender's t and z frames are
// m 16-byte blocks each, OT j at byte 16j.
//
// transpose turns rows into columns on 8×8 bit tiles: one byte from each of 8
// rows gathered into a uint64, three masked shift-xor rounds, one byte
// scattered to each of 8 Messages. The column byte is the outer loop, so a
// step reads one byte of all 128 rows and completes 8 Messages.
//
// # The batch
//
// One extension is a correlated OT: the receiver's u frame, and nothing
// back. The sender holds row q_j, the receiver t_j = q_j ⊕ c_j·s for its
// choice bit c_j, and s, fixed for the life of the base-OT state, is the
// offset of every pair: (q_j, q_j ⊕ s). NewExtSender sets the lsb of s,
// so a garbler takes s as its free-XOR offset and the rows as labels, and
// ResumeSender refuses a state without that bit (ErrColourBit). Each side
// has one batch type, SenderPads (ReceivePads) and ReceiverPads
// (SendChoices), used one of two ways:
//
//   - Rows as labels. The sender's rows are its zero labels, and the
//     receiver's rows are the labels of its choices, with no hash and no
//     frame past u: a Server-Garbler garbler garbles the client's b and r
//     wires at q_j, so it extends before it garbles.
//   - Bound (Bind), for choices that do not exist yet. The sender's zero
//     labels become x0_j = q_j ⊕ y_j for one-time pads y it can derive
//     again, and the batch keeps nothing; the receiver keeps t_j and c_j
//     (16 bytes and a bit). An answer to correction bits d is one frame
//     "z", z_j = y_j ⊕ d_j·s, which the receiver opens as t_j ⊕ z_j =
//     x0_j ⊕ (c_j ⊕ d_j)·s. Client-Garbler runs the batch offline on
//     uniformly random choices c; online, SendPrecomputed and
//     ReceivePrecomputed exchange "d", the receiver's d = a ⊕ c for its
//     real choices a, packed like c, and "z". No PRG, transpose or hash
//     runs online on the receiver, one AES-CTR expansion of y on the
//     sender.
//
// SendPrecomputed answers only a batch that is bound and not yet
// answered: an answer to a rows-as-labels batch, z = d·s, or a second
// answer on the same y would give s away, and with it every label of the
// session. docs/invariants.md ("OT-defined input labels", "Label OT
// precomputation") says why rows that share s are labels, and why c may be
// drawn before the choices exist.
//
// Send and Receive are the chosen OT on the same rows: the pads H(q_j)
// and H(q_j ⊕ s), with H the fixed-key-AES hash of internal/garble and
// tweak the session-wide OT index with bit 63 set, bound to the pairs by
// a "t" frame, t_j = x0 ⊕ x1 ⊕ H(q_j) ⊕ H(q_j ⊕ s), and answered at once
// for d = 0 by "z": u, then t and z, 32 bytes an OT down. No protocol step
// sends one.
//
// # Buffers
//
// A batch's buffers (slab, transposed rows, packed choice bits, the u or
// z frame it builds; a chosen OT's t frame reuses the slab) are allocated
// by the batch and dropped with it: a fixed number of allocations a round
// whatever m is, none per OT. Keeping them on the endpoint between batches
// was measured and bought 0.08 ms of an 11.2 ms inference for 3 MiB (9 %)
// of resident set per serving process, so they are not kept (docs/perf.md).
// None of them aliases a frame returned by Recv, which belongs to the
// transport. Receive returns a slice the caller owns — the transpose writes
// columns straight into it and the pads are XORed in place — and Send only
// reads its argument; Zero, Bind, Rows and ReceivePrecomputed return the
// batch's own row storage. Neither endpoint is safe for concurrent use.
//
// # Errors
//
// A frame of the wrong length is a *FrameSizeError, raised before anything
// is indexed by it. Whatever the cause, the first failed call that moves
// bytes (Send, ReceivePads, SendPrecomputed on the sender; Receive,
// SendChoices, ReceivePrecomputed on the receiver) poisons its endpoint:
// the parties' streams and OT index are out of step from then on and a
// later batch would deliver garbage labels, so every later call — empty
// batches included — returns the first error and touches neither the
// connection nor the streams. A call a batch is not ready for is refused
// before it moves a byte and poisons nothing. Recover with a new session
// (ResumeSender/ResumeReceiver under a fresh nonce, resume.go).
package ot

//lint:file-ignore SA1019 crypto/elliptic's ScalarMult, ScalarBaseMult and Add are deprecated as low-level APIs, but they are the only standard-library P-256 point addition, which the chooser's B = bG + A needs (docs/invariants.md)

import (
	"crypto/elliptic"
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

// pointBytes is a compressed P-256 point: prefix 0x02/0x03, then x.
const pointBytes = 33

// baseKDFTag separates the base-OT key derivation from every other SHA-256
// use in the repository.
const baseKDFTag = "privinf/ot-base/v6"

var curve = elliptic.P256()

// randScalar draws a scalar uniform in [1, n): 32 big-endian bytes from
// src, redrawn while zero or not below the group order (a P-256 draw is
// rejected with probability below 2^-32).
func randScalar(src io.Reader) ([]byte, error) {
	k := make([]byte, 32)
	for {
		if _, err := io.ReadFull(src, k); err != nil {
			return nil, fmt.Errorf("ot: entropy: %w", err)
		}
		if v := new(big.Int).SetBytes(k); v.Sign() > 0 && v.Cmp(curve.Params().N) < 0 {
			return k, nil
		}
	}
}

// isIdentity reports whether an affine result of crypto/elliptic is the
// point at infinity, which it returns as (0, 0).
func isIdentity(x, y *big.Int) bool { return x.Sign() == 0 && y.Sign() == 0 }

// baseKDF derives OT i's seed from the transcript points A and B (their wire
// encodings) and the shared point (x, y). The shared point is the identity
// only on the base sender's k1 side when a peer sent B_i = A; it is then
// hashed as 33 zero bytes, which no compressed point encodes to.
func baseKDF(i int, a, b []byte, x, y *big.Int) Message {
	in := binary.BigEndian.AppendUint64([]byte(baseKDFTag), uint64(i))
	in = append(append(in, a...), b...)
	if isIdentity(x, y) {
		in = append(in, make([]byte, pointBytes)...)
	} else {
		in = append(in, elliptic.MarshalCompressed(curve, x, y)...)
	}
	sum := sha256.Sum256(in)
	return Message(sum[:KeySize])
}

// baseSend is the base sender's side of kappa random OTs over conn (the
// extension receiver runs it): it returns both seeds of every OT.
func baseSend(conn transport.MsgConn, src io.Reader) ([kappa][2]Message, error) {
	var seeds [kappa][2]Message
	a, err := randScalar(src)
	if err != nil {
		return seeds, err
	}
	ax, ay := curve.ScalarBaseMult(a)
	aRaw := elliptic.MarshalCompressed(curve, ax, ay)
	if err := conn.Send(aRaw); err != nil {
		return seeds, err
	}
	// −T = −aA, computed while the chooser works.
	tx, ty := curve.ScalarMult(ax, ay, a)
	ty.Sub(curve.Params().P, ty)

	raw, err := conn.Recv()
	if err != nil {
		return seeds, err
	}
	if len(raw) != kappa*pointBytes {
		return seeds, &FrameSizeError{Frame: "base B", Got: len(raw), Want: kappa * pointBytes}
	}
	var bx, by [kappa]*big.Int
	for i := range bx {
		if bx[i], by[i] = elliptic.UnmarshalCompressed(curve, raw[i*pointBytes:(i+1)*pointBytes]); bx[i] == nil {
			return seeds, fmt.Errorf("ot: base OT %d: peer point B is not a compressed P-256 point", i)
		}
	}
	for i := range seeds {
		b := raw[i*pointBytes : (i+1)*pointBytes]
		px, py := curve.ScalarMult(bx[i], by[i], a)
		seeds[i][0] = baseKDF(i, aRaw, b, px, py)
		qx, qy := curve.Add(px, py, tx, ty)
		seeds[i][1] = baseKDF(i, aRaw, b, qx, qy)
	}
	return seeds, nil
}

// baseReceive is the chooser's side of kappa random OTs over conn (the
// extension sender runs it): OT i delivers the seed bit i of choices selects.
func baseReceive(conn transport.MsgConn, choices Message, src io.Reader) ([kappa]Message, error) {
	var seeds [kappa]Message
	aRaw, err := conn.Recv()
	if err != nil {
		return seeds, err
	}
	if len(aRaw) != pointBytes {
		return seeds, &FrameSizeError{Frame: "base A", Got: len(aRaw), Want: pointBytes}
	}
	ax, ay := elliptic.UnmarshalCompressed(curve, aRaw)
	if ax == nil {
		return seeds, fmt.Errorf("ot: base OT: peer point A is not a compressed P-256 point")
	}

	var b [kappa][]byte
	out := make([]byte, 0, kappa*pointBytes)
	for i := range b {
		for {
			if b[i], err = randScalar(src); err != nil {
				return seeds, err
			}
			x, y := curve.ScalarBaseMult(b[i])
			if bit(choices[:], i) {
				x, y = curve.Add(x, y, ax, ay)
			}
			if !isIdentity(x, y) {
				out = append(out, elliptic.MarshalCompressed(curve, x, y)...)
				break
			}
		}
	}
	if err := conn.Send(out); err != nil {
		return seeds, err
	}
	for i := range seeds {
		sx, sy := curve.ScalarMult(ax, ay, b[i])
		seeds[i] = baseKDF(i, aRaw, out[i*pointBytes:(i+1)*pointBytes], sx, sy)
	}
	return seeds, nil
}
