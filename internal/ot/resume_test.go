package ot

import (
	"errors"
	"math/rand"
	"testing"

	"privinf/internal/transport"
)

// resumePair resumes a sender/receiver pair from exported states over a
// fresh pipe under one nonce.
func resumePair(t *testing.T, ss *SenderState, rs *ReceiverState, nonce []byte) (*ExtSender, *ExtReceiver) {
	t.Helper()
	a, b := transport.Pipe()
	s, err := ResumeSender(a, ss, nonce)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeReceiver(b, rs, nonce)
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

// TestResumeSkipsBaseOTs: a resumed pair transfers correctly with zero
// setup traffic — the whole point of the resumption cache.
func TestResumeSkipsBaseOTs(t *testing.T) {
	s0, r0 := setupExtension(t)
	ss, rs := s0.State(), r0.State()

	a, b := transport.Pipe()
	s, err := ResumeSender(a, ss, []byte("session-1"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeReceiver(b, rs, []byte("session-1"))
	if err != nil {
		t.Fatal(err)
	}
	if a.SentBytes() != 0 || b.SentBytes() != 0 {
		t.Fatalf("resume cost %d+%d setup bytes, want 0", a.SentBytes(), b.SentBytes())
	}

	rng := rand.New(rand.NewSource(30))
	pairs := randomPairs(rng, 300)
	choices := randomChoices(rng, 300)
	errCh := make(chan error, 1)
	go func() { errCh <- s.Send(pairs) }()
	got, err := r.Receive(choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkTransfer(t, pairs, choices, got)
}

// TestResumeManySessions: one cached state serves several resumed sessions
// under distinct nonces, each correct and each runnable for multiple
// batches (the per-inference extension rounds).
func TestResumeManySessions(t *testing.T) {
	s0, r0 := setupExtension(t)
	ss, rs := s0.State(), r0.State()
	rng := rand.New(rand.NewSource(31))

	for _, nonce := range [][]byte{[]byte("a"), []byte("b"), []byte("c")} {
		s, r := resumePair(t, ss, rs, nonce)
		for batch := 0; batch < 2; batch++ {
			n := 64 + batch*29
			pairs := randomPairs(rng, n)
			choices := randomChoices(rng, n)
			errCh := make(chan error, 1)
			go func() { errCh <- s.Send(pairs) }()
			got, err := r.Receive(choices)
			if err != nil {
				t.Fatalf("nonce %q batch %d: %v", nonce, batch, err)
			}
			if err := <-errCh; err != nil {
				t.Fatalf("nonce %q batch %d: %v", nonce, batch, err)
			}
			checkTransfer(t, pairs, choices, got)
		}
	}
}

// TestResumeReExport: a resumed endpoint exports the same master state as
// the original setup, so tickets survive chains of resumed sessions.
func TestResumeReExport(t *testing.T) {
	s0, r0 := setupExtension(t)
	ss, rs := s0.State(), r0.State()

	s1, r1 := resumePair(t, ss, rs, []byte("first"))
	ss2, rs2 := s1.State(), r1.State()
	if *ss2 != *ss {
		t.Fatal("resumed sender re-exported a different state than the original setup")
	}
	if *rs2 != *rs {
		t.Fatal("resumed receiver re-exported a different state than the original setup")
	}

	// The re-exported state must still pair with the original peer state.
	s2, r2 := resumePair(t, ss2, rs, []byte("second"))
	rng := rand.New(rand.NewSource(32))
	pairs := randomPairs(rng, 50)
	choices := randomChoices(rng, 50)
	errCh := make(chan error, 1)
	go func() { errCh <- s2.Send(pairs) }()
	got, err := r2.Receive(choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkTransfer(t, pairs, choices, got)
}

// TestResumeRejectsBadArguments: nil states and empty nonces are refused —
// an empty nonce would replay the master streams verbatim.
func TestResumeRejectsBadArguments(t *testing.T) {
	s0, r0 := setupExtension(t)
	a, b := transport.Pipe()
	if _, err := ResumeSender(a, nil, []byte("n")); err == nil {
		t.Fatal("ResumeSender accepted a nil state")
	}
	if _, err := ResumeReceiver(b, nil, []byte("n")); err == nil {
		t.Fatal("ResumeReceiver accepted a nil state")
	}
	if _, err := ResumeSender(a, s0.State(), nil); err == nil {
		t.Fatal("ResumeSender accepted an empty nonce")
	}
	if _, err := ResumeReceiver(b, r0.State(), nil); err == nil {
		t.Fatal("ResumeReceiver accepted an empty nonce")
	}
}

// TestResumeStateSizes pins the footprint accounting the ticket cache
// budgets against.
func TestResumeStateSizes(t *testing.T) {
	s0, r0 := setupExtension(t)
	if got := s0.State().SizeBytes(); got != KeySize*(kappa+1) {
		t.Fatalf("sender state size %d, want %d", got, KeySize*(kappa+1))
	}
	if got := r0.State().SizeBytes(); got != KeySize*kappa*2 {
		t.Fatalf("receiver state size %d, want %d", got, KeySize*kappa*2)
	}
}

// TestNewExtSenderSetsColourBit: a full setup's s has its lsb set whatever
// the entropy's first byte, so it is a free-XOR offset, and its state
// resumes; the same state with that bit cleared is refused with
// ErrColourBit before anything is built.
func TestNewExtSenderSetsColourBit(t *testing.T) {
	even := false
	for seed := int64(30); seed < 34; seed++ {
		var first [1]byte
		newSeeded(seed).Read(first[:])
		even = even || first[0]&1 == 0
		a, b := transport.Pipe()
		errCh := make(chan error, 1)
		go func() { _, err := NewExtReceiver(b, newSeeded(seed+100)); errCh <- err }()
		s, err := NewExtSender(a, newSeeded(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		st := s.State()
		if d := s.Delta(); d[0]&1 != 1 || !st.Resumable() {
			t.Fatalf("seed %d: s = %x has lsb 0", seed, d)
		}
		if _, err := ResumeSender(a, st, []byte("n")); err != nil {
			t.Fatal(err)
		}
		st.sBlock[0] &^= 1
		if _, err := ResumeSender(a, st, []byte("n")); !errors.Is(err, ErrColourBit) {
			t.Fatalf("seed %d: resuming an s with lsb 0: %v, want ErrColourBit", seed, err)
		}
	}
	if !even {
		t.Fatal("no seed drew an even first byte, so no s needed its lsb set")
	}
}
