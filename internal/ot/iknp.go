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
// NewExtReceiver. src may be nil (crypto/rand). The lsb of s is set: s is
// the garbler's free-XOR offset, and that bit is its colour bit.
func NewExtSender(conn transport.MsgConn, src io.Reader) (*ExtSender, error) {
	if src == nil {
		src = rand.Reader
	}
	st := &SenderState{}
	if _, err := io.ReadFull(src, st.sBlock[:]); err != nil {
		return nil, fmt.Errorf("ot: entropy: %w", err)
	}
	st.sBlock[0] |= 1
	var err error
	if st.seeds, err = baseReceive(conn, st.sBlock, src); err != nil {
		return nil, fmt.Errorf("ot: extension sender base OT: %w", err)
	}
	return newSender(conn, st, nil), nil
}

// Delta returns s, the offset every OT of the session shares: the receiver
// of OT j holds q_j ⊕ c_j·s for the sender's row q_j. A garbler takes it as
// its free-XOR offset, so that pair (q_j, q_j ⊕ s) is a pair of labels.
func (s *ExtSender) Delta() Message { return s.st.sBlock }

// Send transfers pairs[j][bit] for the receiver's j-th choice bit: one
// extension whose choices the receiver embedded in u, its rows hashed into
// the pads m0 = H(q_j) and m1 = H(q_j ⊕ s) under the OT index and bound to
// the pairs, t then z. The first failure poisons the endpoint: the two
// parties' streams are out of step from then on, so every later call
// returns that error and moves no bytes.
func (s *ExtSender) Send(pairs [][2]Message) error {
	return sticky(&s.err, len(pairs), func() error {
		m, first := len(pairs), s.otIndex
		pads := make([]Message, 2*m)
		w, m1 := pads[:m], pads[m:]
		slab, err := s.rows(w)
		if err != nil {
			return err
		}
		for j := range w {
			xor(&m1[j], &w[j], &s.st.sBlock)
		}
		hashPads(&s.h, w, first)
		hashPads(&s.h, m1, first)
		t := slab[:KeySize*m] // the slab is free once transposed, and kappa*mBytes ≥ 16m
		for j, p := range pairs {
			xor(&w[j], &w[j], &p[0])
			xor(&m1[j], &m1[j], &p[1])
			xor((*Message)(t[KeySize*j:]), &w[j], &m1[j])
		}
		if err := s.conn.Send(t); err != nil {
			return err
		}
		for j := range w { // z overwrites the sent t
			*(*Message)(t[KeySize*j:]) = w[j]
		}
		return s.conn.Send(t)
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

// xor sets *dst = *a ⊕ *b a word at a time; dst may be a or b. Pointers,
// not values: a 16-byte array passed and returned by value costs several
// times the XOR.
func xor(dst, a, b *Message) {
	le := binary.LittleEndian
	le.PutUint64(dst[:8], le.Uint64(a[:8])^le.Uint64(b[:8]))
	le.PutUint64(dst[8:], le.Uint64(a[8:])^le.Uint64(b[8:]))
}

// rows receives the correction matrix u of one extension of m = len(q) > 0
// OTs, writes the sender's rows q_j into q and returns the bit-matrix slab
// they were transposed from, free for the caller (at least 16m bytes).
func (s *ExtSender) rows(q []Message) ([]byte, error) {
	m := len(q)
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
	slab := make([]byte, kappa*mBytes)
	for i := range s.streams {
		row := slab[i*mBytes : (i+1)*mBytes]
		if bit(s.st.sBlock[:], i) {
			copy(row, u[i*mBytes:])
		}
		s.streams[i].XORKeyStream(row, row)
	}
	transpose(q, slab, mBytes)
	s.otIndex += uint64(m)
	return slab, nil
}

// batchState is where a batch stands; each call on it moves it one step,
// and a call out of step is refused before it moves a byte.
type batchState uint8

const (
	batchNew      batchState = iota // rows taken from u (sender) or u sent (receiver)
	batchBound                      // rows handed out as zero labels q ⊕ y, one answer owed (sender)
	batchAnswered                   // z sent or opened
)

func (s batchState) String() string { return [...]string{"new", "bound", "answered"}[s] }

// SenderPads is one extension on the sender's side: its rows q_j, the zero
// labels of pairs (q_j, q_j ⊕ s) whose receiver already holds the label of
// its choice bit c_j, q_j ⊕ c_j·s. The rows are pseudorandom and
// independent of everything the sender picks, so a garbler whose offset is
// s may take them as its input wires' false labels: the pair costs the u
// frame and nothing else. Bound to one-time pads y instead (Bind), the
// zero labels become q_j ⊕ y_j, the batch keeps nothing but its size, and
// it owes one answer, z_j = y_j ⊕ d_j·s, on the same y.
type SenderPads struct {
	q     []Message // the rows, until Bind hands them out
	m     int
	state batchState
}

// Zero returns the batch's rows q_j, one an OT, in storage the batch owns,
// until Bind hands them out.
func (b *SenderPads) Zero() []Message { return b.q }

// SizeBytes reports the batch's resident footprint: its rows until bound,
// nothing after.
func (b *SenderPads) SizeBytes() uint64 { return uint64(len(b.q)) * KeySize }

// ReceivePads runs the sender's half of m OTs: it receives the receiver's
// u frame (SendChoices) and keeps the rows. Failures poison the endpoint
// as in Send.
func (s *ExtSender) ReceivePads(m int) (*SenderPads, error) {
	b := &SenderPads{q: make([]Message, m), m: m}
	return b, sticky(&s.err, m, func() error { _, err := s.rows(b.q); return err })
}

// Bind turns a new batch's rows into the zero labels x0_j = q_j ⊕ y_j,
// for pads y of 16 bytes an OT, OT j at byte 16j, and hands them to the
// caller, who must be able to derive y again for the batch's one answer
// (SendPrecomputed). It refuses a batch already bound or answered and pads
// that do not cover it.
func (b *SenderPads) Bind(y []byte) ([]Message, error) {
	if b.state != batchNew || len(y) != KeySize*b.m {
		return nil, fmt.Errorf("ot: %d pad bytes for a %v batch of %d OTs", len(y), b.state, b.m)
	}
	x0 := b.q
	for j := range x0 {
		xor(&x0[j], &x0[j], (*Message)(y[KeySize*j:]))
	}
	b.q, b.state = nil, batchBound
	return x0, nil
}

// SendPrecomputed is a bound batch's answer: it receives the correction
// bits d = a ⊕ c, one per OT, and sends z = y ⊕ d·s for the pads y the
// batch was bound with, built over y, which the receiver opens as t ⊕ z =
// x0 ⊕ a·s. It refuses, before it moves a byte, a batch not bound (its
// rows are its labels, and z would be d·s and give s away), one already
// answered (a second answer on the same y would too), and pads that do
// not cover the batch. Failures poison the endpoint as in Send.
func (s *ExtSender) SendPrecomputed(b *SenderPads, y []byte) error {
	if b.state != batchBound || len(y) != KeySize*b.m {
		return fmt.Errorf("ot: answer with %d pad bytes to a %v batch of %d OTs, want one bound", len(y), b.state, b.m)
	}
	b.state = batchAnswered
	return sticky(&s.err, b.m, func() error {
		d, err := s.conn.Recv()
		if err != nil {
			return err
		}
		if want := (b.m + 7) / 8; len(d) != want {
			return &FrameSizeError{Frame: "d", Got: len(d), Want: want}
		}
		for j := 0; j < b.m; j++ {
			if zj := (*Message)(y[KeySize*j:]); bit(d, j) {
				xor(zj, zj, &s.st.sBlock)
			}
		}
		return s.conn.Send(y)
	})
}

// otChunk bounds the run of tweaks hashPads builds on its stack.
const otChunk = 256

// hashPads replaces every pad with its hash, pad i under the tweak of OT
// first + i, one HashBatch call per otChunk pads.
func hashPads(h *garble.Hasher, pads []Message, first uint64) {
	var tweaks [otChunk]uint64
	for lo := 0; lo < len(pads); lo += otChunk {
		run := pads[lo:min(lo+otChunk, len(pads))]
		for i := range run {
			tweaks[i] = otTweak | (first + uint64(lo+i))
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
// caller owns: the rows of u hashed into the pads H(t_j), opened by t and
// then z. The first failure poisons the endpoint like ExtSender.Send.
func (r *ExtReceiver) Receive(choices []bool) ([]Message, error) {
	var out []Message
	err := sticky(&r.err, len(choices), func() (err error) {
		c, first := pack(choices), r.otIndex
		if out, err = r.sendU(c, len(choices)); err == nil {
			hashPads(&r.h, out, first)
			if err = recvInto(r.conn, "t", out, c); err == nil {
				err = recvInto(r.conn, "z", out, nil)
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sendU sends the u frame of one extension of m > 0 OTs on the packed
// choice bits c and returns the receiver's rows t_j = q_j ⊕ c_j·s.
func (r *ExtReceiver) sendU(c []byte, m int) ([]Message, error) {
	mBytes := len(c)
	// t_i = PRG(k_i^0); u_i = t_i ⊕ c ⊕ PRG(k_i^1).
	slab := make([]byte, 2*kappa*mBytes)
	rows, u := slab[:kappa*mBytes], slab[kappa*mBytes:]
	for i := range r.streams0 {
		t, ui := rows[i*mBytes:(i+1)*mBytes], u[i*mBytes:(i+1)*mBytes]
		r.streams0[i].XORKeyStream(t, t)
		subtle.XORBytes(ui, t, c)
		r.streams1[i].XORKeyStream(ui, ui)
	}
	if err := r.conn.Send(u); err != nil {
		return nil, err
	}
	out := make([]Message, m)
	transpose(out, rows, mBytes)
	r.otIndex += uint64(m)
	return out, nil
}

// ReceiverPads is SenderPads' receiver side: the packed choice bits c of
// one extension whose u frame is sent, and its rows t_j = q_j ⊕ c_j·s, the
// labels of choice c under the sender's rows, 16 bytes and a bit an OT.
type ReceiverPads struct {
	c     []byte
	k     []Message
	state batchState
}

// Rows returns the batch's rows t_j, one an OT, in storage the batch owns.
func (b *ReceiverPads) Rows() []Message { return b.k }

// SizeBytes reports the batch's resident footprint.
func (b *ReceiverPads) SizeBytes() uint64 { return uint64(len(b.k)*KeySize + len(b.c)) }

// SendChoices runs the receiver's half of len(choices) OTs: it sends the u
// frame the sender's ReceivePads takes and keeps the rows. Failures poison
// the endpoint as in Receive.
func (r *ExtReceiver) SendChoices(choices []bool) (*ReceiverPads, error) {
	b := &ReceiverPads{c: pack(choices)}
	return b, sticky(&r.err, len(choices), func() (err error) {
		b.k, err = r.sendU(b.c, len(choices))
		return err
	})
}

// ReceivePrecomputed is a batch's answer: it sends d = a ⊕ c for the
// choices a and opens the sender's z frame with the rows, into the batch's
// own storage, which it returns: t ⊕ z = x0 ⊕ a·s, the label of a under a
// bound batch's zero labels. It refuses a batch already answered. Failures
// poison the endpoint as in Receive.
func (r *ExtReceiver) ReceivePrecomputed(b *ReceiverPads, choices []bool) ([]Message, error) {
	if b.state != batchNew || len(choices) != len(b.k) {
		return nil, fmt.Errorf("ot: %d choices for a %v batch of %d OTs", len(choices), b.state, len(b.k))
	}
	b.state = batchAnswered
	if err := sticky(&r.err, len(choices), func() error {
		d := pack(choices)
		subtle.XORBytes(d, d, b.c)
		if err := r.conn.Send(d); err != nil {
			return err
		}
		return recvInto(r.conn, "z", b.k, nil)
	}); err != nil {
		return nil, err
	}
	return b.k, nil
}

// recvInto receives a frame of one Message an OT, the sender's t or z, and
// XORs Message j into keys[j] wherever bit j of mask is set (everywhere for
// a nil mask): a chosen OT's t frame into the pads of the OTs whose choice
// bit is 1, a z frame into every key, which opens it to the chosen message.
func recvInto(conn transport.MsgConn, frame string, keys []Message, mask []byte) error {
	p, err := conn.Recv()
	if err != nil {
		return err
	}
	if len(p) != KeySize*len(keys) {
		return &FrameSizeError{Frame: frame, Got: len(p), Want: KeySize * len(keys)}
	}
	for j := range keys {
		if mask == nil || bit(mask, j) {
			xor(&keys[j], &keys[j], (*Message)(p[KeySize*j:]))
		}
	}
	return nil
}

// pack packs bits in the kernel's order: bit j at byte j/8, bit j%8.
func pack(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for j, b := range bits {
		if b {
			out[j/8] |= 1 << (j % 8)
		}
	}
	return out
}

// FrameSizeError reports a frame whose length does not fit what it carries:
// an extension frame ("u", the receiver's correction matrix, or "t", a
// chosen OT's correlation) against its batch, an answer's frame ("d", the
// receiver's correction bits, or "z", the sender's masked labels), or a
// base-OT flight ("base A", one point, or "base B", kappa points). It is
// raised before the frame is read.
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
