package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"

	"privinf/internal/garble"
	"privinf/internal/transport"
)

// kappa is the computational security parameter: the number of base OTs and
// the IKNP matrix width.
const kappa = 128

// otTweak marks the extension's hash tweaks (OT index with bit 63 set), so
// none collides with a garbling gate index, which stays below 2^63.
const otTweak = 1 << 63

// ExtSender is the sender side of IKNP OT extension. One public-key base-OT
// setup (where it plays base *receiver*) amortizes over any number of
// Send batches; the per-OT cost is symmetric crypto only. In the PI
// protocol the garbler is the extension sender: it transfers the label pair
// for each of the evaluator's input bits.
type ExtSender struct {
	conn transport.MsgConn
	// st is the base-OT outcome, kept for State export (resumption): the
	// streams below are stateful and cannot be rewound. On a resumed
	// sender it holds the original master seeds, not the nonce-derived
	// per-session ones, so a re-exported state stays interchangeable with
	// the first session's.
	st      SenderState
	streams [kappa]cipher.Stream
	h       garble.Hasher
	otIndex uint64 // global OT counter for hash-tweak uniqueness
	err     error  // first failure, sticky
}

// NewExtSender runs base-OT setup over conn. The peer must concurrently run
// NewExtReceiver. src may be nil (crypto/rand).
func NewExtSender(conn transport.MsgConn, src io.Reader) (*ExtSender, error) {
	if src == nil {
		src = rand.Reader
	}
	st := &SenderState{}
	if _, err := io.ReadFull(src, st.sBlock[:]); err != nil {
		return nil, fmt.Errorf("ot: entropy: %w", err)
	}
	var err error
	if st.seeds, err = baseReceive(conn, st.sBlock, src); err != nil {
		return nil, fmt.Errorf("ot: extension sender base OT: %w", err)
	}
	return newSender(conn, st, nil), nil
}

// Send transfers pairs[j][bit] for the receiver's j-th choice bit: one
// extension whose choices the receiver embedded in u, its pads bound to the
// pairs and answered for correction bits d = 0. The first failure poisons
// the endpoint: the two parties' streams are out of step from then on, so
// every later call returns that error and moves no bytes.
func (s *ExtSender) Send(pairs [][2]Message) error {
	return sticky(&s.err, len(pairs), func() error {
		w, err := s.extend(pairs)
		if err != nil {
			return err
		}
		return s.conn.Send(answer(w, nil, nil, 1))
	})
}

// sticky runs f on a batch of m > 0 OTs unless *err holds an earlier
// failure, and keeps f's: the endpoint's poisoning rule in one place.
func sticky(err *error, m int, f func() error) error {
	if *err == nil && m > 0 {
		*err = f()
	}
	return *err
}

// SenderOTs is a batch of random OTs extended ahead of their use and bound
// to the pairs they will transfer: OT j holds w = (x0 ⊕ m0, x1 ⊕ m1) for its
// pair and its pads (m0, m1). The pairs come in groups of per OTs that share
// one offset x0 ⊕ x1, kept once; under free-XOR a garbled unit's label pairs
// are such a group, so a garbler's batch holds 32 bytes an OT plus 16 a
// unit, and no encoding.
type SenderOTs struct {
	w, delta []Message
	per      int
	spent    bool
}

// SizeBytes reports the batch's resident footprint.
func (b *SenderOTs) SizeBytes() uint64 { return uint64(len(b.w)+len(b.delta)) * KeySize }

// Precompute runs len(pairs) random OTs, answering the receiver's
// Precompute, and binds them to pairs, whose OTs j and k share an offset
// whenever j/per = k/per (per ≥ 1). SendPrecomputed transfers the batch.
// Failures poison the endpoint as in Send.
func (s *ExtSender) Precompute(pairs [][2]Message, per int) (*SenderOTs, error) {
	b := &SenderOTs{per: per, delta: make([]Message, (len(pairs)+per-1)/per)}
	for g := range b.delta {
		xor(&b.delta[g], &pairs[g*per][0], &pairs[g*per][1])
	}
	return b, sticky(&s.err, len(pairs), func() (err error) {
		b.w, err = s.extend(pairs)
		return err
	})
}

// SendPrecomputed is a batch's online leg: it receives the correction bits
// d = a ⊕ c, one per OT, and answers with the pairs masked by the pads d
// selects. A batch is sent once: a second answer on the same pads would
// give away both messages. Failures poison the endpoint as in Send.
func (s *ExtSender) SendPrecomputed(b *SenderOTs) error {
	if b.spent {
		return fmt.Errorf("ot: batch of %d OTs already sent", len(b.w)/2)
	}
	b.spent = true
	return sticky(&s.err, len(b.w), func() error {
		d, err := s.conn.Recv()
		if err != nil {
			return err
		}
		if want := (len(b.w)/2 + 7) / 8; len(d) != want {
			return &FrameSizeError{Frame: "d", Got: len(d), Want: want}
		}
		return s.conn.Send(answer(b.w, d, b.delta, b.per))
	})
}

// answer is the sender's reply to correction bits d (nil: all zero) on pads
// w bound to their pairs: x0 ⊕ m0 at 2j and x1 ⊕ m1 at 2j+1, which is the
// reply to d_j = 0. Where d_j = 1 the reply is x0 ⊕ m1 then x1 ⊕ m0: the
// two swapped, each XORed with x0 ⊕ x1 = delta[j/per].
func answer(w []Message, d []byte, delta []Message, per int) []byte {
	y := make([]byte, KeySize*len(w))
	for j := 0; j < len(w)/2; j++ {
		z0, z1 := (*Message)(y[2*KeySize*j:]), (*Message)(y[2*KeySize*j+KeySize:])
		if d != nil && bit(d, j) {
			xor(z0, &w[2*j+1], &delta[j/per])
			xor(z1, &w[2*j], &delta[j/per])
		} else {
			*z0, *z1 = w[2*j], w[2*j+1]
		}
	}
	return y
}

// xor sets *dst = *a ⊕ *b a word at a time; dst may be a or b. Pointers,
// not values: a 16-byte array passed and returned by value costs several
// times the XOR.
func xor(dst, a, b *Message) {
	le := binary.LittleEndian
	le.PutUint64(dst[:8], le.Uint64(a[:8])^le.Uint64(b[:8]))
	le.PutUint64(dst[8:], le.Uint64(a[8:])^le.Uint64(b[8:]))
}

// extend is the sender's half of one extension of len(pairs) > 0 OTs: it
// receives the correction matrix u and returns the pads bound to the
// pairs, x0 ⊕ m0 for OT j at 2j and x1 ⊕ m1 at 2j+1.
func (s *ExtSender) extend(pairs [][2]Message) ([]Message, error) {
	m := len(pairs)
	mBytes := (m + 7) / 8
	u, err := s.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(u) != kappa*mBytes {
		return nil, &FrameSizeError{Frame: "u", Got: len(u), Want: kappa * mBytes}
	}

	// q_i = PRG(k_i) ⊕ s_i·u_i: the keystream is XORed over u_i or zeros.
	// The batch's buffers are its own and never alias the frame.
	rows := make([]byte, kappa*mBytes)
	for i := range s.streams {
		row := rows[i*mBytes : (i+1)*mBytes]
		if bit(s.st.sBlock[:], i) {
			copy(row, u[i*mBytes:])
		}
		s.streams[i].XORKeyStream(row, row)
	}
	// The pads of OT j are q_j at 2j and q_j ⊕ s at 2j+1: transposed into
	// the lower half, then spread from the top down so no q_j is overwritten
	// before it is read.
	pads := make([]Message, 2*m)
	transpose(pads[:m], rows, mBytes)
	for j := m - 1; j >= 0; j-- {
		pads[2*j] = pads[j]
		xor(&pads[2*j+1], &pads[2*j], &s.st.sBlock)
	}
	hashPads(&s.h, pads, s.otIndex, 2)
	s.otIndex += uint64(m)
	for j := range pairs {
		xor(&pads[2*j], &pads[2*j], &pairs[j][0])
		xor(&pads[2*j+1], &pads[2*j+1], &pairs[j][1])
	}
	return pads, nil
}

// otChunk bounds the run of tweaks hashPads builds on its stack.
const otChunk = 256

// hashPads replaces every pad with its hash, pad i under the tweak of OT
// first + i/perOT, one HashBatch call per otChunk pads.
func hashPads(h *garble.Hasher, pads []Message, first uint64, perOT int) {
	var tweaks [otChunk]uint64
	for lo := 0; lo < len(pads); lo += otChunk {
		run := pads[lo:min(lo+otChunk, len(pads))]
		for i := range run {
			tweaks[i] = otTweak | (first + uint64((lo+i)/perOT))
		}
		h.HashBatch(run, run, tweaks[:len(run)])
	}
}

// ExtReceiver is the receiver side of IKNP OT extension; it plays base
// *sender* during setup.
type ExtReceiver struct {
	conn               transport.MsgConn
	st                 ReceiverState // both base-OT seed pairs, for State export
	streams0, streams1 [kappa]cipher.Stream
	h                  garble.Hasher
	otIndex            uint64
	err                error // first failure, sticky
}

// NewExtReceiver runs base-OT setup over conn. The peer must concurrently
// run NewExtSender. src may be nil (crypto/rand).
func NewExtReceiver(conn transport.MsgConn, src io.Reader) (*ExtReceiver, error) {
	if src == nil {
		src = rand.Reader
	}
	seeds, err := baseSend(conn, src)
	if err != nil {
		return nil, fmt.Errorf("ot: extension receiver base OT: %w", err)
	}
	return newReceiver(conn, &ReceiverState{seeds: seeds}, nil), nil
}

// Receive obtains the message selected by each choice bit, in a slice the
// caller owns. The first failure poisons the endpoint like ExtSender.Send.
func (r *ExtReceiver) Receive(choices []bool) ([]Message, error) {
	var out []Message
	err := sticky(&r.err, len(choices), func() (err error) {
		if out, err = r.extend(pack(choices), len(choices)); err == nil {
			err = r.open(out, choices, "y")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReceiverOTs is a batch of random OTs extended ahead of their use: random
// choice bits c, packed, and the pad m_c of each OT.
type ReceiverOTs struct {
	c     []byte
	mc    []Message
	spent bool
}

// SizeBytes reports the batch's resident footprint.
func (b *ReceiverOTs) SizeBytes() uint64 { return uint64(len(b.mc)*KeySize + len(b.c)) }

// Precompute runs m random OTs on choice bits drawn from src (nil means
// crypto/rand), sending the u frame the sender's Precompute answers.
// Failures poison the endpoint as in Receive.
func (r *ExtReceiver) Precompute(m int, src io.Reader) (*ReceiverOTs, error) {
	if src == nil {
		src = rand.Reader
	}
	b := &ReceiverOTs{c: make([]byte, (m+7)/8)}
	if _, err := io.ReadFull(src, b.c); err != nil {
		return nil, fmt.Errorf("ot: entropy: %w", err)
	}
	return b, sticky(&r.err, m, func() (err error) {
		b.c[len(b.c)-1] &= 0xFF >> (7 - (m-1)%8) // no choice bits past m
		b.mc, err = r.extend(b.c, m)
		return err
	})
}

// ReceivePrecomputed is a batch's online leg: it sends d = a ⊕ c for the
// choices a and opens the sender's answer with the stored pads, into the
// batch's own storage, which it returns. A batch is received once. Failures
// poison the endpoint as in Receive.
func (r *ExtReceiver) ReceivePrecomputed(b *ReceiverOTs, choices []bool) ([]Message, error) {
	if b.spent || len(choices) != len(b.mc) {
		return nil, fmt.Errorf("ot: %d choices for a batch of %d OTs, spent %v", len(choices), len(b.mc), b.spent)
	}
	b.spent = true
	err := sticky(&r.err, len(choices), func() error {
		d := pack(choices)
		subtle.XORBytes(d, d, b.c)
		if err := r.conn.Send(d); err != nil {
			return err
		}
		return r.open(b.mc, choices, "z")
	})
	if err != nil {
		return nil, err
	}
	return b.mc, nil
}

// extend is the receiver's half of one extension of m > 0 OTs on the
// packed choice bits rBits: it sends u and returns each OT's pad of the
// chosen message, H(t_j).
func (r *ExtReceiver) extend(rBits []byte, m int) ([]Message, error) {
	mBytes := len(rBits)
	// t_i = PRG(k_i^0); u_i = t_i ⊕ r ⊕ PRG(k_i^1).
	rows := make([]byte, kappa*mBytes)
	u := make([]byte, kappa*mBytes)
	for i := range r.streams0 {
		t, ui := rows[i*mBytes:(i+1)*mBytes], u[i*mBytes:(i+1)*mBytes]
		r.streams0[i].XORKeyStream(t, t)
		subtle.XORBytes(ui, t, rBits)
		r.streams1[i].XORKeyStream(ui, ui)
	}
	if err := r.conn.Send(u); err != nil {
		return nil, err
	}
	// The pads H(t_j) are ready before the sender's answer arrives.
	pads := make([]Message, m)
	transpose(pads, rows, mBytes)
	hashPads(&r.h, pads, r.otIndex, 1)
	r.otIndex += uint64(m)
	return pads, nil
}

// open receives the sender's answer to choices (frame "y" or "z") and turns
// each OT's pad into its chosen message in place: half a_j of the answer ⊕
// pad.
func (r *ExtReceiver) open(pads []Message, choices []bool, frame string) error {
	y, err := r.conn.Recv()
	if err != nil {
		return err
	}
	if want := 2 * KeySize * len(choices); len(y) != want {
		return &FrameSizeError{Frame: frame, Got: len(y), Want: want}
	}
	for j, c := range choices {
		xor(&pads[j], (*Message)(y[2*KeySize*j+KeySize*b2i(c):]), &pads[j])
	}
	return nil
}

// pack packs bits in the kernel's order: bit j at byte j/8, bit j%8.
func pack(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for j, b := range bits {
		out[j/8] |= byte(b2i(b)) << (j % 8)
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FrameSizeError reports a frame whose length does not fit what it carries:
// an extension frame ("u", the receiver's correction matrix, or "y", the
// sender's ciphertexts) against its batch, a precomputed batch's online
// frame ("d", the receiver's correction bits, or "z", the sender's answer),
// or a base-OT flight ("base A", one point, or "base B", kappa points). It
// is raised before the frame is read.
type FrameSizeError struct {
	Frame     string
	Got, Want int
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("ot: %s frame is %d bytes, want %d", e.Frame, e.Got, e.Want)
}

// newPRG builds an AES-CTR stream from a 16-byte seed. Streams are stateful
// so successive Extend batches consume fresh pseudorandomness.
func newPRG(seed Message) cipher.Stream {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("ot: aes init: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	return cipher.NewCTR(block, iv[:])
}

// bit reports bit i of a little-endian packed bit string.
func bit(b []byte, i int) bool { return b[i/8]>>(uint(i)%8)&1 == 1 }

// transpose writes the bit matrix rows (kappa rows of mBytes bytes, bit j of
// row i at byte j/8, bit j%8) column-wise: bit i of dst[j] becomes bit j of
// row i, for every j < len(dst). It works on 8×8 bit tiles — one byte from
// each of 8 rows in, one byte to each of 8 blocks out — with the column byte
// in the outer loop, so the 16 tiles of one step fill 8 whole blocks.
func transpose(dst []Message, rows []byte, mBytes int) {
	for c := 0; c < mBytes; c++ {
		tile := dst[8*c : min(8*c+8, len(dst))]
		for g := 0; g < kappa/8; g++ {
			var x uint64
			for k := 0; k < 8; k++ {
				x |= uint64(rows[(8*g+k)*mBytes+c]) << (8 * k)
			}
			x = transpose8x8(x)
			for b := range tile {
				tile[b][g] = byte(x >> (8 * b))
			}
		}
	}
}

// transpose8x8 transposes an 8×8 bit matrix held one row per byte (row k in
// byte k, column b at bit b): three rounds that swap ever larger off-diagonal
// blocks (Hacker's Delight §7-3).
func transpose8x8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	x ^= t ^ t<<28
	return x
}
