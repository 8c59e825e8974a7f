package ot

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"privinf/internal/garble"
	"privinf/internal/transport"
)

// OT resumption: the public-key part of IKNP setup is the kappa base OTs
// (two flights and 256 P-256 scalar multiplications per session). Their output —
// the sender's secret correlation bits s plus one PRG seed per column on
// the sender side, both seeds per column on the receiver side — is
// input-independent, so a party that completes one full setup can cache it
// and open later sessions without re-running the base OTs at all.
//
// A cached state is never reused directly: each resumed session derives
// fresh column seeds as H(master seed || nonce) for a nonce both parties
// agree on (unique per session), so every session expands independent
// pseudorandom streams. This is the standard amortization the IKNP
// extension is built for — the base-OT correlation (s and the seed
// pairing) is long-lived, only the symmetric expansion is per-session.
// Reusing s across sessions is safe in the semi-honest model: s never
// leaves the sender, and it is the garbler's free-XOR offset for as long
// as the state lives, which docs/invariants.md ("OT-defined input labels")
// argues.

// SenderState is the extension sender's cached base-OT outcome: the secret
// correlation bits and the kappa seeds it received as base-OT chooser. It
// contains secret material and must be held only by the party that ran the
// setup (a serving engine's ticket cache, a client's preamble).
type SenderState struct {
	sBlock Message
	seeds  [kappa]Message
}

// ReceiverState is the extension receiver's cached base-OT outcome: both
// seeds of every column pair it sent as base-OT sender.
type ReceiverState struct {
	seeds [kappa][2]Message
}

// SizeBytes reports the state's resident footprint, the unit a resumption
// ticket cache budgets.
func (st *SenderState) SizeBytes() int64 { return KeySize * (kappa + 1) }

// SizeBytes reports the state's resident footprint.
func (st *ReceiverState) SizeBytes() int64 { return KeySize * kappa * 2 }

// State exports the sender's resumable base-OT material. The returned
// state is a copy; it stays valid after the session ends.
func (s *ExtSender) State() *SenderState {
	st := s.st
	return &st
}

// State exports the receiver's resumable base-OT material.
func (r *ExtReceiver) State() *ReceiverState {
	st := r.st
	return &st
}

// deriveSeed maps a master seed to a per-session seed under a session
// nonce: SHA-256(tag || master || nonce) truncated to a PRG key. Distinct
// nonces give computationally independent streams, so one cached base-OT
// outcome serves any number of resumed sessions. A nil nonce is the session
// that ran the base OTs, which expands the master seed itself.
func deriveSeed(master Message, nonce []byte) Message {
	if nonce == nil {
		return master
	}
	h := sha256.New()
	h.Write([]byte("privinf/ot-resume/v1"))
	h.Write(master[:])
	h.Write(nonce)
	var out Message
	copy(out[:], h.Sum(nil))
	return out
}

// ErrColourBit is ResumeSender's refusal of a state whose s has lsb 0:
// NewExtSender has set that bit since s became the garbler's free-XOR
// offset, whose colour bit it is, so such a state predates that and must
// be replaced by a full setup.
var ErrColourBit = errors.New("ot: resume sender: s has lsb 0, so it cannot be a free-XOR offset")

// Resumable reports whether ResumeSender takes the state: whether the lsb
// of s is set.
func (st *SenderState) Resumable() bool { return st.sBlock[0]&1 == 1 }

// ResumeSender reconstructs an extension sender from cached base-OT
// material without any network traffic: the per-session streams are
// expanded locally from nonce-derived seeds. The peer must resume the
// matching ReceiverState under the same nonce, and the nonce must be
// unique per resumed session (reuse would replay identical streams). A
// state that is not Resumable is refused with ErrColourBit.
func ResumeSender(conn transport.MsgConn, st *SenderState, nonce []byte) (*ExtSender, error) {
	if st == nil || len(nonce) == 0 {
		return nil, fmt.Errorf("ot: resume sender: nil state or empty session nonce")
	}
	if !st.Resumable() {
		return nil, ErrColourBit
	}
	return newSender(conn, st, nonce), nil
}

// ResumeReceiver reconstructs an extension receiver from cached base-OT
// material; see ResumeSender.
func ResumeReceiver(conn transport.MsgConn, st *ReceiverState, nonce []byte) (*ExtReceiver, error) {
	if st == nil || len(nonce) == 0 {
		return nil, fmt.Errorf("ot: resume receiver: nil state or empty session nonce")
	}
	return newReceiver(conn, st, nonce), nil
}

// newSender builds a sender on the base-OT outcome st, its streams keyed
// with the session's seeds under nonce.
func newSender(conn transport.MsgConn, st *SenderState, nonce []byte) *ExtSender {
	s := &ExtSender{conn: conn, st: *st, h: garble.NewHasher()}
	for i, seed := range st.seeds {
		s.streams[i] = newPRG(deriveSeed(seed, nonce))
	}
	return s
}

// newReceiver is newSender's receiver side.
func newReceiver(conn transport.MsgConn, st *ReceiverState, nonce []byte) *ExtReceiver {
	r := &ExtReceiver{conn: conn, st: *st, h: garble.NewHasher()}
	for i, pair := range st.seeds {
		r.streams0[i], r.streams1[i] = newPRG(deriveSeed(pair[0], nonce)), newPRG(deriveSeed(pair[1], nonce))
	}
	return r
}
