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
// pairs and answered at once for correction bits d = 0, t then z. The first
// failure poisons the endpoint: the two parties' streams are out of step
// from then on, so every later call returns that error and moves no bytes.
func (s *ExtSender) Send(pairs [][2]Message) error {
	return sticky(&s.err, len(pairs), func() error {
		m := len(pairs)
		pads, t, err := s.pads(m)
		if err != nil {
			return err
		}
		w, m1 := pads[:m], pads[m:]
		for j, p := range pairs {
			xor(&w[j], &w[j], &p[0])
			xor(&m1[j], &m1[j], &p[1])
			xor((*Message)(t[KeySize*j:]), &w[j], &m1[j])
		}
		if err := s.conn.Send(t); err != nil {
			return err
		}
		return s.conn.Send(answer(t, w, nil, nil, 1)) // z overwrites the sent t
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

// answer writes into z and returns the sender's z frame for correction bits
// d (nil: all zero) on pads w bound to their pairs, w_j = x0 ⊕ m0: z_j =
// w_j ⊕ d_j·delta[j/per], with delta the pairs' offset x0 ⊕ x1.
func answer(z []byte, w []Message, d []byte, delta []Message, per int) []byte {
	for j := range w {
		if zj := (*Message)(z[KeySize*j:]); d != nil && bit(d, j) {
			xor(zj, &w[j], &delta[j/per])
		} else {
			*zj = w[j]
		}
	}
	return z
}

// xor sets *dst = *a ⊕ *b a word at a time; dst may be a or b. Pointers,
// not values: a 16-byte array passed and returned by value costs several
// times the XOR.
func xor(dst, a, b *Message) {
	le := binary.LittleEndian
	le.PutUint64(dst[:8], le.Uint64(a[:8])^le.Uint64(b[:8]))
	le.PutUint64(dst[8:], le.Uint64(a[8:])^le.Uint64(b[8:]))
}

// pads receives the correction matrix u of one extension of m > 0 OTs and
// returns the OTs' pads, m0 = H(q_j) at j and m1 = H(q_j ⊕ s) at m+j, and
// the buffer the t frame is built in (16m bytes, never aliasing the pads).
func (s *ExtSender) pads(m int) ([]Message, []byte, error) {
	mBytes := (m + 7) / 8
	u, err := s.conn.Recv()
	if err != nil {
		return nil, nil, err
	}
	if len(u) != kappa*mBytes {
		return nil, nil, &FrameSizeError{Frame: "u", Got: len(u), Want: kappa * mBytes}
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
	// The pads of OT j are q_j at j and q_j ⊕ s at m+j. The slab is free
	// once transposed, and t fills its first 16m bytes (kappa*mBytes ≥ 16m).
	pads := make([]Message, 2*m)
	m0, m1 := pads[:m], pads[m:]
	transpose(m0, rows, mBytes)
	for j := range m0 {
		xor(&m1[j], &m0[j], &s.st.sBlock)
	}
	hashPads(&s.h, m0, s.otIndex)
	hashPads(&s.h, m1, s.otIndex)
	s.otIndex += uint64(m)
	return pads, rows[:KeySize*m], nil
}

// batchState is where a batch stands; each call on it moves it one step,
// and a call out of step is refused before it moves a byte.
type batchState uint8

const (
	batchNew      batchState = iota // pads taken from u (sender) or u sent (receiver)
	batchOffered                    // t sent (sender, pads as labels) or opened (receiver)
	batchBound                      // t sent, w and Δ kept for one answer (sender)
	batchAnswered                   // z sent or opened
)

func (s batchState) String() string { return [...]string{"new", "offered", "bound", "answered"}[s] }

// SenderPads is one extension on the sender's side: the pads of the
// receiver's u frame, then the t frame for the offsets of the pairs the
// pads transfer, then, for a batch bound to zero labels of the sender's
// own, one answer. Its zero pads m0 = H(q_j) are pseudorandom and
// independent of everything the sender picks, so a garbler may take them
// as its input wires' false labels (SendOffsets with no zero labels): the
// pair (m0, m0 ⊕ Δ) then costs only the t frame, t_j = Δ ⊕ m0 ⊕ m1, and
// the receiver opens m_c ⊕ c·t, which is the label of its choice c, with no
// answer at all. Bound to zero labels x0 instead, the batch keeps w_j = x0
// ⊕ m0 and the pairs' offsets, 16 bytes an OT plus 16 a group, for one
// SendPrecomputed.
type SenderPads struct {
	pads  []Message // m0, then m1; a bound batch's w alone once offered
	t     []byte    // the t frame's buffer, until it is sent
	delta []Message // a bound batch's offsets, one a group of per OTs
	per   int
	state batchState
}

// Zero returns the batch's pads m0, one an OT, in storage the batch owns,
// until SendOffsets binds the batch.
func (b *SenderPads) Zero() []Message { return b.pads[:len(b.pads)/2] }

// SizeBytes reports the batch's resident footprint: once bound and
// offered, 16 bytes an OT plus 16 a group.
func (b *SenderPads) SizeBytes() uint64 { return uint64(len(b.pads)+len(b.delta)) * KeySize }

// ReceivePads runs the sender's first half of m OTs: it receives the
// receiver's u frame (SendChoices) and returns the pads. SendOffsets
// finishes the batch. Failures poison the endpoint as in Send.
func (s *ExtSender) ReceivePads(m int) (*SenderPads, error) {
	b := &SenderPads{}
	return b, sticky(&s.err, m, func() (err error) {
		b.pads, b.t, err = s.pads(m)
		return err
	})
}

// SendOffsets sends the t frame of a batch from ReceivePads for the pairs
// (x0_j, x0_j ⊕ delta[j/per]), whose OTs j and k share an offset whenever
// j/per = k/per: t_j = delta[j/per] ⊕ m0_j ⊕ m1_j. A nil x0 takes the
// zero pads as the zero labels, and the batch is done; otherwise the batch
// is bound to x0 and keeps w_j = x0_j ⊕ m0_j and delta, for one
// SendPrecomputed. A batch is offered once. Failures poison the endpoint
// as in Send.
func (s *ExtSender) SendOffsets(b *SenderPads, x0, delta []Message, per int) error {
	m := len(b.pads) / 2
	if b.state != batchNew || per < 1 || len(delta) != (m+per-1)/per || x0 != nil && len(x0) != m {
		return fmt.Errorf("ot: %d zero labels, %d offsets of %d OTs each for a batch of %d OTs, %v", len(x0), len(delta), per, m, b.state)
	}
	b.state = batchOffered
	return sticky(&s.err, m, func() error {
		m0, m1, t := b.pads[:m], b.pads[m:], b.t
		for j := range m0 {
			tj := (*Message)(t[KeySize*j:])
			xor(tj, &m0[j], &m1[j])
			xor(tj, tj, &delta[j/per])
		}
		if x0 != nil { // keep w and Δ alone: no m1, no t
			w := make([]Message, m)
			for j := range w {
				xor(&w[j], &x0[j], &m0[j])
			}
			b.pads, b.delta, b.per, b.state = w, delta, per, batchBound
		}
		b.t = nil
		return s.conn.Send(t)
	})
}

// SendPrecomputed is a bound batch's answer: it receives the correction
// bits d = a ⊕ c, one per OT, and sends z = w ⊕ d·Δ. It refuses, before it
// moves a byte, a batch not yet offered, one whose pads are its labels (z
// would be d·Δ and give Δ away), and one already answered (a second answer
// on the same pads would too). Failures poison the endpoint as in Send.
func (s *ExtSender) SendPrecomputed(b *SenderPads) error {
	if b.state != batchBound {
		return fmt.Errorf("ot: answer to a %v batch, want one bound and offered", b.state)
	}
	b.state = batchAnswered
	return sticky(&s.err, len(b.pads), func() error {
		d, err := s.conn.Recv()
		if err != nil {
			return err
		}
		if want := (len(b.pads) + 7) / 8; len(d) != want {
			return &FrameSizeError{Frame: "d", Got: len(d), Want: want}
		}
		return s.conn.Send(answer(make([]byte, KeySize*len(b.pads)), b.pads, d, b.delta, b.per))
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
// caller owns: the pads of u, opened by t and then z. The first failure
// poisons the endpoint like ExtSender.Send.
func (r *ExtReceiver) Receive(choices []bool) ([]Message, error) {
	var out []Message
	err := sticky(&r.err, len(choices), func() (err error) {
		c := pack(choices)
		if out, err = r.sendU(c, len(choices)); err == nil {
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
// choice bits rBits and returns the pads H(t_j), which are m_r of each OT.
func (r *ExtReceiver) sendU(rBits []byte, m int) ([]Message, error) {
	mBytes := len(rBits)
	// t_i = PRG(k_i^0); u_i = t_i ⊕ r ⊕ PRG(k_i^1).
	slab := make([]byte, 2*kappa*mBytes)
	rows, u := slab[:kappa*mBytes], slab[kappa*mBytes:]
	for i := range r.streams0 {
		t, ui := rows[i*mBytes:(i+1)*mBytes], u[i*mBytes:(i+1)*mBytes]
		r.streams0[i].XORKeyStream(t, t)
		subtle.XORBytes(ui, t, rBits)
		r.streams1[i].XORKeyStream(ui, ui)
	}
	if err := r.conn.Send(u); err != nil {
		return nil, err
	}
	// The pads H(t_j) are ready before the sender's t frame arrives.
	pads := make([]Message, m)
	transpose(pads, rows, mBytes)
	hashPads(&r.h, pads, r.otIndex)
	r.otIndex += uint64(m)
	return pads, nil
}

// ReceiverPads is SenderPads' receiver side: the packed choice bits c of
// one extension whose u frame is sent, and the pads m_c they select, then
// the keys the t frame opens, m_c ⊕ c·t, which are x_c ⊕ w of a bound
// batch's pairs, 16 bytes and a bit an OT.
type ReceiverPads struct {
	c     []byte
	k     []Message
	state batchState
}

// SizeBytes reports the batch's resident footprint.
func (b *ReceiverPads) SizeBytes() uint64 { return uint64(len(b.k)*KeySize + len(b.c)) }

// SendChoices runs the receiver's first half of len(choices) OTs: it sends
// the u frame the sender's ReceivePads takes. ReceiveOffsets opens the
// batch. Failures poison the endpoint as in Receive.
func (r *ExtReceiver) SendChoices(choices []bool) (*ReceiverPads, error) {
	b := &ReceiverPads{c: pack(choices)}
	return b, sticky(&r.err, len(choices), func() (err error) {
		b.k, err = r.sendU(b.c, len(choices))
		return err
	})
}

// ReceiveOffsets receives the sender's t frame for a batch from SendChoices
// and opens each OT's key, m_c ⊕ c·t, into the batch's own storage, which
// it returns. Where the sender's pads are the labels, the key is the label
// m0 ⊕ c·Δ of choice c, and the batch is done; a bound batch's keys wait
// for ReceivePrecomputed. A batch is opened once. Failures poison the
// endpoint as in Receive.
func (r *ExtReceiver) ReceiveOffsets(b *ReceiverPads) ([]Message, error) {
	if b.state != batchNew {
		return nil, fmt.Errorf("ot: batch of %d OTs already opened", len(b.k))
	}
	b.state = batchOffered
	if err := sticky(&r.err, len(b.k), func() error { return recvInto(r.conn, "t", b.k, b.c) }); err != nil {
		return nil, err
	}
	return b.k, nil
}

// ReceivePrecomputed is an opened batch's answer: it sends d = a ⊕ c for
// the choices a and opens the sender's z frame with the keys, into the
// batch's own storage, which it returns: x_a of each pair. It refuses a
// batch not yet opened or already answered. Failures poison the endpoint
// as in Receive.
func (r *ExtReceiver) ReceivePrecomputed(b *ReceiverPads, choices []bool) ([]Message, error) {
	if b.state != batchOffered || len(choices) != len(b.k) {
		return nil, fmt.Errorf("ot: %d choices for a batch of %d OTs, %v, not opened", len(choices), len(b.k), b.state)
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
// a nil mask): the t frame into the pads of the OTs whose choice bit is 1,
// the z frame into every key, which opens it to the chosen message.
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
// an extension frame ("u", the receiver's correction matrix, or "t", the
// sender's correlation) against its batch, an answer's frame ("d", the
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
