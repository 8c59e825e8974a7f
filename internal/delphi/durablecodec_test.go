package delphi

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"privinf/internal/bin"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/ot"
	"privinf/internal/transport"
)

// Battery for the two client-side durable codecs: OTResume (the resumable
// base-OT material a preamble caches) and ClientShared (the client model
// artifact a preamble persists). Same contract as every other on-disk
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

// TestClientSharedCodecRoundTrip: metadata, params, circuits, the
// circuit-sharing structure and the size accounting all survive the trip;
// plans are re-derived, not stored, so they must still be deep-equal.
func TestClientSharedCodecRoundTrip(t *testing.T) {
	model, params := codecModel(t, 31)
	cs, err := NewClientShared(params, MetaOf(model))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalClientShared(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs.meta, got.meta) {
		t.Fatalf("meta did not round-trip: %+v vs %+v", cs.meta, got.meta)
	}
	if got.params.N != cs.params.N || got.params.T != cs.params.T {
		t.Fatal("params did not round-trip")
	}
	if !reflect.DeepEqual(cs.plans, got.plans) {
		t.Fatal("re-derived plans differ from originals")
	}
	if !reflect.DeepEqual(cs.circuits, got.circuits) {
		t.Fatal("circuits did not round-trip")
	}
	if got.SizeBytes() != cs.SizeBytes() {
		t.Fatalf("reloaded artifact reports %d bytes, built one %d", got.SizeBytes(), cs.SizeBytes())
	}
	for i := 1; i < len(cs.circuits); i++ {
		if (cs.circuits[i] == cs.circuits[0]) != (got.circuits[i] == got.circuits[0]) {
			t.Fatalf("circuit sharing for layer %d not preserved", i)
		}
	}
}

// TestClientSharedCodecRejectsDamage: version skew, hostile parameters,
// truncation, trailing bytes and out-of-range circuit references all
// error cleanly.
func TestClientSharedCodecRejectsDamage(t *testing.T) {
	model, params := codecModel(t, 32)
	cs, err := NewClientShared(params, MetaOf(model))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	wrongVersion := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(wrongVersion, clientSharedCodecVersion+1)
	if _, err := UnmarshalClientShared(wrongVersion); err == nil {
		t.Error("decode accepted a wrong codec version")
	}

	// A hostile ring degree must error in parameter validation before any
	// table allocation (2^32 would overflow the primitive-root search).
	hostileN := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(hostileN[8:], 1<<32)
	if _, err := UnmarshalClientShared(hostileN); err == nil {
		t.Error("decode accepted a hostile ring degree")
	}

	// The payload ends with the per-layer circuit index table; pointing the
	// last layer past the unique-circuit table must error, not index out of
	// bounds.
	badIndex := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(badIndex[len(badIndex)-8:], 999)
	if _, err := UnmarshalClientShared(badIndex); err == nil {
		t.Error("decode accepted an out-of-range circuit reference")
	}

	// A well-formed payload whose one layer is 0x0 must fail validation, not
	// divide by zero laying out its matvec plan.
	var degenerate bin.Writer
	writeHeader(&degenerate, clientSharedCodecVersion, params, ModelMeta{P: params.T, Frac: 4, Dims: []LayerDim{{In: 0, Out: 0}}})
	if err := writeCircuits(&degenerate, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalClientShared(degenerate.Buf); err == nil {
		t.Error("decode accepted a layer with non-positive dims")
	}

	for _, cut := range []int{0, 4, 17, 100, len(raw) / 2, len(raw) - 1} {
		if _, err := UnmarshalClientShared(raw[:cut]); err == nil {
			t.Errorf("decode accepted payload truncated to %d bytes", cut)
		}
	}
	if _, err := UnmarshalClientShared(append(append([]byte(nil), raw...), 9)); err == nil {
		t.Error("decode accepted trailing bytes")
	}
}

// TestClientSharedRoundTripServesInference: a decoded client artifact is
// functionally identical — a client built on it completes a session with
// bit-exact outputs, the in-package half of the preamble-store guarantee.
func TestClientSharedRoundTripServesInference(t *testing.T) {
	model, err := nn.DemoMLP(field.New(field.P20), 33)
	if err != nil {
		t.Fatal(err)
	}
	first := newSession(t, ClientGarbler, model, 0)
	raw, err := first.client.shared.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := UnmarshalClientShared(raw)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Variant: ClientGarbler, HEParams: reloaded.params}
	cc, sc := transport.Pipe()
	server, err := NewServerShared(sc, cfg, first.server.shared, newSeeded(1011))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClientWithShared(cc, cfg, reloaded, newSeeded(2012))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- server.Setup() }()
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	s := &session{client: client, server: server, model: model}
	x := randomInput(model.F, model.InputLen(), 34)
	got, _, _, _, _ := s.inferPrivately(t, x)
	want := model.Forward(x)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reloaded client artifact diverged from plaintext")
	}
}
