package delphi

import (
	"fmt"

	"privinf/internal/bin"
	"privinf/internal/ot"
)

// Equal reports whether two model descriptions are identical — the check
// the artifact codec makes between a stored model and its metadata.
func (m ModelMeta) Equal(o ModelMeta) bool {
	if m.P != o.P || m.Frac != o.Frac || len(m.Dims) != len(o.Dims) || len(m.Shifts) != len(o.Shifts) {
		return false
	}
	for i := range m.Dims {
		if m.Dims[i] != o.Dims[i] {
			return false
		}
	}
	for i := range m.Shifts {
		if m.Shifts[i] != o.Shifts[i] {
			return false
		}
	}
	return true
}

// OTResume is one party's cached base-OT material for session resumption.
// Exactly one field is set, matching the role the party's variant assigns
// (Server-Garbler: server sends, client receives; Client-Garbler: the
// reverse). It pairs with the peer's matching state: both sides must
// resume from states exported by the same original session, under the same
// fresh per-session nonce.
type OTResume struct {
	Sender   *ot.SenderState
	Receiver *ot.ReceiverState
}

// Resumable reports whether the state can resume a session: a sender
// state must have s's lsb set (ot.ErrColourBit); a receiver state always
// can.
func (r *OTResume) Resumable() bool { return r.Sender == nil || r.Sender.Resumable() }

// SizeBytes returns the seed material's resident footprint, the unit a
// resumption ticket cache budgets.
func (r *OTResume) SizeBytes() int64 {
	var n int64
	if r.Sender != nil {
		n += r.Sender.SizeBytes()
	}
	if r.Receiver != nil {
		n += r.Receiver.SizeBytes()
	}
	return n
}

// otResumeFlag encodes which of the two states an OTResume carries.
const (
	otResumeSender   byte = 1 << 0
	otResumeReceiver byte = 1 << 1
)

// MarshalBinary encodes the resumption state: a flags byte naming which
// role states follow, then their fixed-size encodings. The bytes are
// secret seed material — persistence (a ticket store, a preamble store)
// owns framing, integrity, and at-rest protection.
func (r *OTResume) MarshalBinary() ([]byte, error) {
	flags, size := byte(0), 1
	if r.Sender != nil {
		flags |= otResumeSender
		size += ot.SenderStateBytes
	}
	if r.Receiver != nil {
		flags |= otResumeReceiver
		size += ot.ReceiverStateBytes
	}
	w := bin.Writer{Buf: make([]byte, 0, size)}
	w.Bytes([]byte{flags})
	if r.Sender != nil {
		raw, err := r.Sender.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Bytes(raw)
	}
	if r.Receiver != nil {
		raw, err := r.Receiver.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Bytes(raw)
	}
	return w.Buf, nil
}

// UnmarshalOTResume decodes state produced by OTResume.MarshalBinary,
// rejecting unknown flags, short payloads and trailing bytes — a damaged
// record errors instead of resuming from garbage seeds.
func UnmarshalOTResume(data []byte) (*OTResume, error) {
	rd := bin.NewReader(data)
	flags := rd.Take(1)
	if rd.Err() != nil {
		return nil, fmt.Errorf("delphi: OT resume state: %w", rd.Err())
	}
	if flags[0]&^(otResumeSender|otResumeReceiver) != 0 {
		return nil, fmt.Errorf("delphi: OT resume state has unknown flags %#x", flags[0])
	}
	r := &OTResume{}
	if flags[0]&otResumeSender != 0 {
		r.Sender = &ot.SenderState{}
		if err := r.Sender.UnmarshalBinary(rd.Take(ot.SenderStateBytes)); err != nil {
			return nil, err
		}
	}
	if flags[0]&otResumeReceiver != 0 {
		r.Receiver = &ot.ReceiverState{}
		if err := r.Receiver.UnmarshalBinary(rd.Take(ot.ReceiverStateBytes)); err != nil {
			return nil, err
		}
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("delphi: OT resume state: %w", err)
	}
	return r, nil
}
