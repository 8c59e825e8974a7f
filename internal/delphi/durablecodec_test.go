package delphi

import (
	"bytes"
	"testing"

	"privinf/internal/ot"
)

// Battery for the client-side durable codec, OTResume: the resumable
// base-OT material a preamble caches. Same contract as every other on-disk
// format here: exact round trips, and damage errors instead of panicking
// or decoding to garbage.

func patternedOTBytes(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int(seed)*13 + i*7)
	}
	return out
}

// TestOTResumeCodecRoundTrip: every carried-state combination re-encodes
// bit-identically — the canonical-encoding property the serve-layer fuzz
// target leans on transitively.
func TestOTResumeCodecRoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"sender only":   append([]byte{otResumeSender}, patternedOTBytes(ot.SenderStateBytes, 3)...),
		"receiver only": append([]byte{otResumeReceiver}, patternedOTBytes(ot.ReceiverStateBytes, 5)...),
		"both": append(append([]byte{otResumeSender | otResumeReceiver},
			patternedOTBytes(ot.SenderStateBytes, 7)...),
			patternedOTBytes(ot.ReceiverStateBytes, 9)...),
		"neither": {0},
	}
	for name, raw := range cases {
		r, err := UnmarshalOTResume(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (r.Sender != nil) != (raw[0]&otResumeSender != 0) || (r.Receiver != nil) != (raw[0]&otResumeReceiver != 0) {
			t.Fatalf("%s: decoded wrong role states", name)
		}
		re, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(raw, re) {
			t.Fatalf("%s: re-encoding differs from original", name)
		}
	}
}

// TestOTResumeCodecRejectsDamage: unknown flags, short state blocks and
// trailing bytes all error — resuming OT extension from partial or foreign
// seed material must be impossible.
func TestOTResumeCodecRejectsDamage(t *testing.T) {
	sender := append([]byte{otResumeSender}, patternedOTBytes(ot.SenderStateBytes, 3)...)
	cases := map[string][]byte{
		"empty":                  {},
		"unknown flag":           append([]byte{4}, patternedOTBytes(ot.SenderStateBytes, 3)...),
		"all flags":              {0xFF},
		"sender short one":       sender[:len(sender)-1],
		"sender header only":     {otResumeSender},
		"sender trailing":        append(append([]byte(nil), sender...), 0),
		"receiver sender-sized":  append([]byte{otResumeReceiver}, patternedOTBytes(ot.SenderStateBytes, 3)...),
		"both missing receiver":  append([]byte{otResumeSender | otResumeReceiver}, patternedOTBytes(ot.SenderStateBytes, 3)...),
		"flagless trailing byte": {0, 1},
	}
	for name, raw := range cases {
		if _, err := UnmarshalOTResume(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
