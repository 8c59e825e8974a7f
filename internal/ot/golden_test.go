package ot

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privinf/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current implementation")

// goldenStates loads testdata/states.bin: the SenderState and then the
// ReceiverState that setupExtension produced under wire v5 (MODP base OTs),
// written with the state codecs. They pin the extension's inputs, so the
// IKNP golden covers the extension and not the base OT that made its seeds.
// Their s has lsb 0 (byte 0 is 0x1e), which NewExtSender no longer makes:
// ResumeSender refuses the sender state (ErrColourBit), so the golden's
// resumed endpoints are built on it directly. iknp.golden runs chosen OTs
// only and is unchanged by that; a rows-as-labels test built on these
// states must expect the refusal.
func goldenStates(t *testing.T) (*SenderState, *ReceiverState) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "states.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != SenderStateBytes+ReceiverStateBytes {
		t.Fatalf("states.bin is %d bytes, want %d", len(raw), SenderStateBytes+ReceiverStateBytes)
	}
	ss, rs := &SenderState{}, &ReceiverState{}
	if err := ss.UnmarshalBinary(raw[:SenderStateBytes]); err != nil {
		t.Fatal(err)
	}
	if err := rs.UnmarshalBinary(raw[SenderStateBytes:]); err != nil {
		t.Fatal(err)
	}
	return ss, rs
}

// masterPair builds the endpoints a full setup ending in ss and rs would
// have: streams expanded from the master seeds as they are, not from
// nonce-derived ones.
func masterPair(a, b transport.MsgConn, ss *SenderState, rs *ReceiverState) (*ExtSender, *ExtReceiver) {
	return newSender(a, ss, nil), newReceiver(b, rs, nil)
}

// TestIKNPGolden pins the extension's wire bytes on fixed base-OT states,
// fresh (master seeds) and resumed, over batch sizes on both sides of every
// byte and tile boundary: per batch the receiver's correction frame u, the
// sender's t and z frames and a digest of the delivered messages, each line
// "endpoints frame bytes sha256". The u and got lines were generated by the
// bit-at-a-time, slice-per-row implementation that preceded the tiled
// kernel and have never changed. The sender's lines moved twice: with the
// extension's hash (wire v5), and when the two-ciphertext y frame became the
// correlated t and z frames (wire v9).
func TestIKNPGolden(t *testing.T) {
	ss, rs := goldenStates(t)
	var got strings.Builder
	run := func(tag string, s *ExtSender, r *ExtReceiver, us, ys *frames) {
		rng := rand.New(rand.NewSource(40))
		for i, m := range []int{1, 7, 64, 300, 2560, 129} {
			msgs := runBatch(t, s, r, randomPairs(rng, m), randomChoices(rng, m))
			h := sha256.New()
			for _, msg := range msgs {
				h.Write(msg[:])
			}
			for _, f := range []struct {
				name string
				p    []byte
			}{{"u", us.sent[i]}, {"t", ys.sent[2*i]}, {"z", ys.sent[2*i+1]}} {
				fmt.Fprintf(&got, "%s %s %d %x\n", tag, f.name, len(f.p), sha256.Sum256(f.p))
			}
			fmt.Fprintf(&got, "%s got %d %x\n", tag, m, h.Sum(nil))
		}
	}
	a, b := transport.Pipe()
	ys, us := &frames{MsgConn: a}, &frames{MsgConn: b}
	s0, r0 := masterPair(ys, us, ss, rs)
	run("fresh", s0, r0, us, ys)

	a, b = transport.Pipe()
	ys, us = &frames{MsgConn: a}, &frames{MsgConn: b}
	s1 := newSender(ys, ss, []byte("golden"))
	r1, err := ResumeReceiver(us, rs, []byte("golden"))
	if err != nil {
		t.Fatal(err)
	}
	run("resumed", s1, r1, us, ys)

	path := filepath.Join("testdata", "iknp.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("IKNP wire bytes changed (run with -update only for a deliberate wire bump)\ngot:\n%swant:\n%s", got.String(), want)
	}
}
