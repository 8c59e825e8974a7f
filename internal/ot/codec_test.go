package ot

import (
	"bytes"
	"encoding"
	"reflect"
	"testing"

	"privinf/internal/bin/bintest"
)

// TestSenderStateCodecRoundTrip: every seed byte survives the trip, and the
// re-encoding is bit-identical — a persisted state resumes the exact
// correlation it was saved with.
func TestSenderStateCodecRoundTrip(t *testing.T) {
	st := &SenderState{}
	for i := range st.sBlock {
		st.sBlock[i] = byte(0xA0 + i)
	}
	for i := range st.seeds {
		for j := range st.seeds[i] {
			st.seeds[i][j] = byte(i*31 + j)
		}
	}
	raw, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != SenderStateBytes {
		t.Fatalf("encoded %d bytes, want %d", len(raw), SenderStateBytes)
	}
	got := &SenderState{}
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("sender state did not round-trip")
	}
	re, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, re) {
		t.Fatal("re-encoding differs from original")
	}
}

// TestReceiverStateCodecRoundTrip: both seeds of every column pair survive,
// in order.
func TestReceiverStateCodecRoundTrip(t *testing.T) {
	st := &ReceiverState{}
	for i := range st.seeds {
		for j := range st.seeds[i][0] {
			st.seeds[i][0][j] = byte(i*17 + j)
			st.seeds[i][1][j] = byte(i*17 + j + 101)
		}
	}
	raw, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != ReceiverStateBytes {
		t.Fatalf("encoded %d bytes, want %d", len(raw), ReceiverStateBytes)
	}
	got := &ReceiverState{}
	if err := got.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("receiver state did not round-trip")
	}
}

// TestStateCodecsRejectWrongSize: both states are fixed-size; any other
// length is damage and must error, never silently zero-fill or truncate —
// resuming from partial seed material would expand garbage streams.
func TestStateCodecsRejectWrongSize(t *testing.T) {
	for _, n := range []int{0, 1, SenderStateBytes - 1, SenderStateBytes + 1, ReceiverStateBytes} {
		if n == SenderStateBytes {
			continue
		}
		if err := (&SenderState{}).UnmarshalBinary(make([]byte, n)); err == nil {
			t.Errorf("sender state accepted %d bytes", n)
		}
	}
	for _, n := range []int{0, 1, ReceiverStateBytes - 1, ReceiverStateBytes + 1, SenderStateBytes} {
		if n == ReceiverStateBytes {
			continue
		}
		if err := (&ReceiverState{}).UnmarshalBinary(make([]byte, n)); err == nil {
			t.Errorf("receiver state accepted %d bytes", n)
		}
	}
}

// TestResumedStateMatchesExported: a state exported from a live extension,
// marshaled and unmarshaled, carries the same correlation block and seeds
// as the original export — the exact bytes ResumeSender/ResumeReceiver
// will derive per-session streams from.
func TestResumedStateMatchesExported(t *testing.T) {
	sender, receiver := setupExtension(t)
	sst, rst := sender.State(), receiver.State()

	sraw, err := sst.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sgot := &SenderState{}
	if err := sgot.UnmarshalBinary(sraw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sst, sgot) {
		t.Fatal("exported sender state did not survive persistence")
	}

	rraw, err := rst.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rgot := &ReceiverState{}
	if err := rgot.UnmarshalBinary(rraw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rst, rgot) {
		t.Fatal("exported receiver state did not survive persistence")
	}
}

// patterned is n bytes of a fixed pattern, a stand-in for seed material.
func patterned(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i*7)
	}
	return out
}

func FuzzSenderStateUnmarshal(f *testing.F) {
	bintest.FuzzRoundTrip(f, patterned(SenderStateBytes, 3), func(data []byte) (encoding.BinaryMarshaler, error) {
		st := &SenderState{}
		return st, st.UnmarshalBinary(data)
	})
}

func FuzzReceiverStateUnmarshal(f *testing.F) {
	bintest.FuzzRoundTrip(f, patterned(ReceiverStateBytes, 5), func(data []byte) (encoding.BinaryMarshaler, error) {
		st := &ReceiverState{}
		return st, st.UnmarshalBinary(data)
	})
}
