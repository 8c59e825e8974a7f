package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
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
	conn    transport.MsgConn
	sBlock  Message // secret correlation bits s, bit i at byte i/8, bit i%8
	streams [kappa]cipher.Stream
	h       garble.Hasher
	otIndex uint64 // global OT counter for hash-tweak uniqueness
	// master holds the base-OT seeds for State export (resumption); the
	// streams above are stateful and cannot be rewound, so the raw seeds
	// are retained. On a resumed sender these are the original master
	// seeds, not the nonce-derived per-session ones, so a re-exported
	// state stays interchangeable with the first session's.
	master [kappa]Message
	err    error // first Send failure, sticky
}

// NewExtSender runs base-OT setup over conn. The peer must concurrently run
// NewExtReceiver. src may be nil (crypto/rand).
func NewExtSender(conn transport.MsgConn, src io.Reader) (*ExtSender, error) {
	s := &ExtSender{conn: conn, h: garble.NewHasher()}
	if src == nil {
		src = rand.Reader
	}
	if _, err := io.ReadFull(src, s.sBlock[:]); err != nil {
		return nil, fmt.Errorf("ot: entropy: %w", err)
	}
	seeds, err := baseReceive(conn, s.sBlock, src)
	if err != nil {
		return nil, fmt.Errorf("ot: extension sender base OT: %w", err)
	}
	s.master = seeds
	for i, seed := range seeds {
		s.streams[i] = newPRG(seed)
	}
	return s, nil
}

// Send transfers pairs[j][bit] for the receiver's j-th choice bit. The first
// failure poisons the endpoint: the two parties' streams are out of step
// from then on, so every later call returns that error and moves no bytes.
func (s *ExtSender) Send(pairs [][2]Message) error {
	if s.err == nil {
		s.err = s.send(pairs)
	}
	return s.err
}

func (s *ExtSender) send(pairs [][2]Message) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	mBytes := (m + 7) / 8

	// Receive the correction matrix u (kappa rows of m bits).
	u, err := s.conn.Recv()
	if err != nil {
		return err
	}
	if len(u) != kappa*mBytes {
		return &FrameSizeError{Frame: "u", Got: len(u), Want: kappa * mBytes}
	}

	// q_i = PRG(k_i) ⊕ s_i·u_i: the keystream is XORed over u_i or zeros.
	// The batch's buffers are its own and never alias the frame.
	rows := make([]byte, kappa*mBytes)
	for i := range s.streams {
		row := rows[i*mBytes : (i+1)*mBytes]
		if bit(s.sBlock[:], i) {
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
		subtle.XORBytes(pads[2*j+1][:], pads[j][:], s.sBlock[:])
	}
	hashPads(&s.h, pads, s.otIndex, 2)

	y := make([]byte, 2*KeySize*m)
	for j := range pairs {
		yj := y[2*KeySize*j : 2*KeySize*(j+1)]
		subtle.XORBytes(yj[:KeySize], pairs[j][0][:], pads[2*j][:])
		subtle.XORBytes(yj[KeySize:], pairs[j][1][:], pads[2*j+1][:])
	}
	s.otIndex += uint64(m)
	return s.conn.Send(y)
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
	conn     transport.MsgConn
	streams0 [kappa]cipher.Stream
	streams1 [kappa]cipher.Stream
	h        garble.Hasher
	otIndex  uint64
	// master holds both base-OT seed pairs for State export (resumption).
	master [kappa][2]Message
	err    error // first Receive failure, sticky
}

// NewExtReceiver runs base-OT setup over conn. The peer must concurrently
// run NewExtSender. src may be nil (crypto/rand).
func NewExtReceiver(conn transport.MsgConn, src io.Reader) (*ExtReceiver, error) {
	r := &ExtReceiver{conn: conn, h: garble.NewHasher()}
	if src == nil {
		src = rand.Reader
	}
	seeds, err := baseSend(conn, src)
	if err != nil {
		return nil, fmt.Errorf("ot: extension receiver base OT: %w", err)
	}
	r.master = seeds
	for i := range seeds {
		r.streams0[i] = newPRG(seeds[i][0])
		r.streams1[i] = newPRG(seeds[i][1])
	}
	return r, nil
}

// Receive obtains the message selected by each choice bit, in a slice the
// caller owns. The first failure poisons the endpoint like ExtSender.Send.
func (r *ExtReceiver) Receive(choices []bool) ([]Message, error) {
	if r.err != nil {
		return nil, r.err
	}
	out, err := r.receive(choices)
	r.err = err
	return out, err
}

func (r *ExtReceiver) receive(choices []bool) ([]Message, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	mBytes := (m + 7) / 8

	rBits := make([]byte, mBytes)
	for j, c := range choices {
		if c {
			rBits[j/8] |= 1 << (uint(j) % 8)
		}
	}

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
	out := make([]Message, m)
	transpose(out, rows, mBytes)
	hashPads(&r.h, out, r.otIndex, 1)

	y, err := r.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(y) != 2*KeySize*m {
		return nil, &FrameSizeError{Frame: "y", Got: len(y), Want: 2 * KeySize * m}
	}
	for j, c := range choices {
		off := 2 * KeySize * j
		if c {
			off += KeySize
		}
		subtle.XORBytes(out[j][:], y[off:off+KeySize], out[j][:])
	}
	r.otIndex += uint64(m)
	return out, nil
}

// FrameSizeError reports a frame whose length does not fit what it carries:
// an extension frame ("u", the receiver's correction matrix, or "y", the
// sender's ciphertexts) against its batch, or a base-OT flight ("base A",
// one point, or "base B", kappa points). It is raised before the frame is
// read.
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
