package ot

import "fmt"

// Binary codecs for the resumable base-OT states, the unit a durable
// resumption cache persists (a serving engine's ticket store, a client's
// preamble store). Both states are fixed-size arrays of PRG seeds, so the
// encoding is the raw seed bytes with no header — framing, versioning and
// integrity are the enclosing store's job. Like the states themselves, the
// encodings are secret key material: whoever persists them owns the
// at-rest protection story.

// SenderStateBytes is the exact encoded size of a SenderState: the secret
// correlation block followed by the kappa chooser seeds.
const SenderStateBytes = KeySize * (kappa + 1)

// ReceiverStateBytes is the exact encoded size of a ReceiverState: both
// seeds of every column pair.
const ReceiverStateBytes = KeySize * kappa * 2

// MarshalBinary encodes the sender state.
func (st *SenderState) MarshalBinary() ([]byte, error) {
	out := append(make([]byte, 0, SenderStateBytes), st.sBlock[:]...)
	for _, seed := range st.seeds {
		out = append(out, seed[:]...)
	}
	return out, nil
}

// UnmarshalBinary decodes a sender state produced by MarshalBinary. Only
// the exact size is accepted — the state has no variable-length parts, so
// any other length is damage, not a different shape.
func (st *SenderState) UnmarshalBinary(data []byte) error {
	if len(data) != SenderStateBytes {
		return fmt.Errorf("ot: sender state is %d bytes, want %d", len(data), SenderStateBytes)
	}
	copy(st.sBlock[:], data)
	for i := range st.seeds {
		copy(st.seeds[i][:], data[KeySize*(i+1):])
	}
	return nil
}

// MarshalBinary encodes the receiver state.
func (st *ReceiverState) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, ReceiverStateBytes)
	for _, pair := range st.seeds {
		out = append(append(out, pair[0][:]...), pair[1][:]...)
	}
	return out, nil
}

// UnmarshalBinary decodes a receiver state produced by MarshalBinary.
func (st *ReceiverState) UnmarshalBinary(data []byte) error {
	if len(data) != ReceiverStateBytes {
		return fmt.Errorf("ot: receiver state is %d bytes, want %d", len(data), ReceiverStateBytes)
	}
	for i := range st.seeds {
		copy(st.seeds[i][0][:], data[2*KeySize*i:])
		copy(st.seeds[i][1][:], data[2*KeySize*i+KeySize:])
	}
	return nil
}
