package ot

import (
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"privinf/internal/transport"
)

// The extension as it was before the tiled kernel, kept as the reference the
// kernel tests compare against: one slice per matrix row, a transpose that
// moves one bit at a time, and a hash call per OT through a function value
// (sha256Hash is the hash wire versions up to 4 used).

// transposeToBlocks converts kappa rows of m bits into m 16-byte rows
// (row j holds bit j of every input row).
func transposeToBlocks(rows [][]byte, m int) []Message {
	out := make([]Message, m)
	for i := 0; i < kappa; i++ {
		row := rows[i]
		byteIdx := i / 8
		bit := byte(1) << (uint(i) % 8)
		for j := 0; j < m; j++ {
			if row[j/8]>>(uint(j)%8)&1 == 1 {
				out[j][byteIdx] |= bit
			}
		}
	}
	return out
}

// xorMsg returns a ⊕ b.
func xorMsg(a, b Message) Message {
	var out Message
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// sha256Hash is SHA-256(index || row) truncated to a message.
func sha256Hash(index uint64, row Message) Message {
	h := sha256.New()
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], index)
	h.Write(idx[:])
	h.Write(row[:])
	var out Message
	copy(out[:], h.Sum(nil))
	return out
}

type oracleSender struct {
	conn    transport.MsgConn
	sBlock  Message
	streams [kappa]cipher.Stream
	otIndex uint64
	hash    func(uint64, Message) Message
}

type oracleReceiver struct {
	conn               transport.MsgConn
	streams0, streams1 [kappa]cipher.Stream
	otIndex            uint64
	hash               func(uint64, Message) Message
}

// newOracles builds a reference pair on the base-OT outcome of a kernel
// pair: a nil nonce expands the master seeds themselves (a fresh setup),
// anything else the nonce-derived ones (a resumed session).
func newOracles(a, b transport.MsgConn, ss *SenderState, rs *ReceiverState, nonce []byte, hash func(uint64, Message) Message) (*oracleSender, *oracleReceiver) {
	s := &oracleSender{conn: a, sBlock: ss.sBlock, hash: hash}
	r := &oracleReceiver{conn: b, hash: hash}
	for i := 0; i < kappa; i++ {
		s.streams[i] = newPRG(deriveSeed(ss.seeds[i], nonce))
		r.streams0[i] = newPRG(deriveSeed(rs.seeds[i][0], nonce))
		r.streams1[i] = newPRG(deriveSeed(rs.seeds[i][1], nonce))
	}
	return s, r
}

func (s *oracleSender) Send(pairs [][2]Message) error {
	m := len(pairs)
	mBytes := (m + 7) / 8
	uRaw, err := s.conn.Recv()
	if err != nil {
		return err
	}
	if len(uRaw) != kappa*mBytes {
		return fmt.Errorf("oracle: correction matrix is %d bytes, want %d", len(uRaw), kappa*mBytes)
	}
	qRows := make([][]byte, kappa)
	for i := 0; i < kappa; i++ {
		row := make([]byte, mBytes)
		s.streams[i].XORKeyStream(row, row)
		if bit(s.sBlock[:], i) {
			u := uRaw[i*mBytes : (i+1)*mBytes]
			for b := range row {
				row[b] ^= u[b]
			}
		}
		qRows[i] = row
	}
	q := transposeToBlocks(qRows, m)
	out := make([]byte, 0, 2*KeySize*m)
	for j := 0; j < m; j++ {
		y0 := xorMsg(pairs[j][0], s.hash(s.otIndex+uint64(j), q[j]))
		y1 := xorMsg(pairs[j][1], s.hash(s.otIndex+uint64(j), xorMsg(q[j], s.sBlock)))
		out = append(out, y0[:]...)
		out = append(out, y1[:]...)
	}
	s.otIndex += uint64(m)
	return s.conn.Send(out)
}

func (r *oracleReceiver) Receive(choices []bool) ([]Message, error) {
	m := len(choices)
	mBytes := (m + 7) / 8
	rBits := make([]byte, mBytes)
	for j, c := range choices {
		if c {
			rBits[j/8] |= 1 << (uint(j) % 8)
		}
	}
	tRows := make([][]byte, kappa)
	uOut := make([]byte, 0, kappa*mBytes)
	for i := 0; i < kappa; i++ {
		t := make([]byte, mBytes)
		r.streams0[i].XORKeyStream(t, t)
		u := make([]byte, mBytes)
		r.streams1[i].XORKeyStream(u, u)
		for b := range u {
			u[b] ^= t[b] ^ rBits[b]
		}
		tRows[i] = t
		uOut = append(uOut, u...)
	}
	if err := r.conn.Send(uOut); err != nil {
		return nil, err
	}
	tBlocks := transposeToBlocks(tRows, m)
	enc, err := r.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(enc) != 2*KeySize*m {
		return nil, fmt.Errorf("oracle: sender sent %d bytes, want %d", len(enc), 2*KeySize*m)
	}
	out := make([]Message, m)
	for j, c := range choices {
		off := j * 2 * KeySize
		if c {
			off += KeySize
		}
		var y Message
		copy(y[:], enc[off:off+KeySize])
		out[j] = xorMsg(y, r.hash(r.otIndex+uint64(j), tBlocks[j]))
	}
	r.otIndex += uint64(m)
	return out, nil
}
