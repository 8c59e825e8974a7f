package ot

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"privinf/internal/transport"
)

// groupedPairs draws one random offset for every per OTs and random zero
// messages: the pairs a garbler's units offer, (x0, x0 ⊕ Δ_{j/per}).
func groupedPairs(rng *rand.Rand, m, per int) ([][2]Message, []Message) {
	delta := make([]Message, (m+per-1)/per)
	for g := range delta {
		rng.Read(delta[g][:])
	}
	pairs := randomPairs(rng, m)
	for j := range pairs {
		xor(&pairs[j][1], &pairs[j][0], &delta[j/per])
	}
	return pairs, delta
}

// runPads runs one pads-then-offsets batch on both endpoints: the receiver
// sends u, the sender takes its pads and answers t for the offsets delta.
// It returns the sender's zero pads and the receiver's opened labels.
func runPads(t *testing.T, s *ExtSender, r *ExtReceiver, choices []bool, delta []Message, per int) ([]Message, []Message) {
	t.Helper()
	type res struct {
		zero []Message
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		b, err := s.ReceivePads(len(choices))
		if err == nil {
			err = s.SendOffsets(b, nil, delta, per)
		}
		ch <- res{b.Zero(), err}
	}()
	rb, err := r.SendChoices(choices)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReceiveOffsets(rb)
	if err != nil {
		t.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	return sr.zero, got
}

// TestPadsAreChosenOTZeroLabels: a pads-then-offsets batch is a chosen OT
// of the pairs (m0, m0 ⊕ Δ) with the answer left out, byte for byte. A
// chosen-OT pair on the same base-OT states, run through the same batches
// on pairs with the same offsets, is the oracle, fresh and resumed: the u
// frames are equal, the t frames are equal (t_j = Δ ⊕ m0 ⊕ m1 whatever the
// zero message), the sender's zero label equals the chosen OT's pad m0 =
// z_j ⊕ x0, and the receiver opens m0 ⊕ c·Δ for both values of its choice
// c, with no z frame. A batch is answered and opened once.
func TestPadsAreChosenOTZeroLabels(t *testing.T) {
	ss, rs := goldenStates(t)
	for _, nonce := range [][]byte{nil, []byte("pads-vs-chosen")} {
		pair := func() (*ExtSender, *ExtReceiver, *frames, *frames) {
			a, b := transport.Pipe()
			fa, fb := &frames{MsgConn: a}, &frames{MsgConn: b}
			if nonce == nil {
				s, r := masterPair(fa, fb, ss, rs)
				return s, r, fa, fb
			}
			s, err := ResumeSender(fa, ss, nonce)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ResumeReceiver(fb, rs, nonce)
			if err != nil {
				t.Fatal(err)
			}
			return s, r, fa, fb
		}
		cs, cr, csf, crf := pair()
		ps, pr, psf, prf := pair()
		rng := rand.New(rand.NewSource(57))
		for i, bc := range []struct {
			m, per int
			fill   int // -1: random choices, else every choice is fill == 1
		}{{1, 1, 1}, {9, 3, -1}, {40, 40, 0}, {40, 40, 1}, {130, 1, -1}, {5120, 40, -1}} {
			choices := randomChoices(rng, bc.m)
			for j := range choices {
				if bc.fill >= 0 {
					choices[j] = bc.fill == 1
				}
			}
			pairs, delta := groupedPairs(rng, bc.m, bc.per)
			runBatch(t, cs, cr, pairs, choices)
			zero, got := runPads(t, ps, pr, choices, delta, bc.per)

			if !bytes.Equal(prf.sent[i], crf.sent[i]) {
				t.Fatalf("resumed=%v m=%d: u frame differs from the chosen OT's", nonce != nil, bc.m)
			}
			tf, zf := csf.sent[2*i], csf.sent[2*i+1]
			if len(psf.sent) != i+1 || !bytes.Equal(psf.sent[i], tf) {
				t.Fatalf("resumed=%v m=%d: sender's frames are not the chosen OT's t frame alone", nonce != nil, bc.m)
			}
			for j, c := range choices {
				var m0, want Message
				xor(&m0, (*Message)(zf[KeySize*j:]), &pairs[j][0])
				if zero[j] != m0 {
					t.Fatalf("resumed=%v m=%d OT %d: zero label is not the pad m0", nonce != nil, bc.m, j)
				}
				want = m0
				if c {
					xor(&want, &m0, &delta[j/bc.per])
				}
				if got[j] != want {
					t.Fatalf("resumed=%v m=%d OT %d (choice %v): opened another label than m0 ⊕ c·Δ", nonce != nil, bc.m, j, c)
				}
			}
		}
		sb, err := ps.ReceivePads(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.SendOffsets(sb, nil, nil, 1); err != nil {
			t.Fatal(err)
		}
		if err := ps.SendOffsets(sb, nil, nil, 1); err == nil {
			t.Fatal("a spent batch was answered again")
		}
		rb, err := pr.SendChoices(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.ReceiveOffsets(rb); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.ReceiveOffsets(rb); err == nil {
			t.Fatal("a spent batch was opened again")
		}
	}
}

// TestSendOffsetsChecksBatch: a second t on one batch, or offsets or zero
// labels that do not cover it, is refused before anything is sent, and does
// not poison the endpoint: the next batch runs.
func TestSendOffsetsChecksBatch(t *testing.T) {
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(58))
	choices := randomChoices(rng, 12)
	_, delta := groupedPairs(rng, 12, 4)
	errCh := make(chan error, 1)
	go func() {
		b, err := s.ReceivePads(12)
		if err != nil {
			errCh <- err
			return
		}
		for _, bad := range []struct {
			x0, delta []Message
			per       int
		}{{nil, delta[:2], 4}, {nil, delta, 3}, {nil, delta, 0}, {nil, nil, 12}, {make([]Message, 11), delta, 4}} {
			if err := s.SendOffsets(b, bad.x0, bad.delta, bad.per); err == nil {
				errCh <- errors.New("offsets that do not cover the batch were sent")
				return
			}
		}
		if err := s.SendOffsets(b, nil, delta, 4); err != nil {
			errCh <- err
			return
		}
		sent := s.conn.SentBytes()
		if err := s.SendOffsets(b, nil, delta, 4); err == nil || s.conn.SentBytes() != sent {
			errCh <- errors.New("a second t was sent on one batch")
			return
		}
		errCh <- nil
	}()
	rb, err := r.SendChoices(choices)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReceiveOffsets(rb); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	_, delta = groupedPairs(rng, 20, 5)
	runPads(t, s, r, randomChoices(rng, 20), delta, 5)
}

// cutLink is a connection that counts the frames an endpoint tries to move
// and moves none.
type cutLink struct {
	transport.MsgConn
	tries int
}

func (c *cutLink) Send([]byte) error     { c.tries++; return errors.New("cut link") }
func (c *cutLink) Recv() ([]byte, error) { c.tries++; return nil, errors.New("cut link") }

// TestAnswerRefusesOutOfStep: only a batch bound to zero labels and
// offered is answered, and once. SendPrecomputed refuses a batch not yet
// offered, a pads-as-labels batch (its answer, z = d·Δ, would give Δ
// away) and an answered one; ReceivePrecomputed refuses an unopened batch
// and an answered one. Each refusal comes before a frame moves and does
// not poison the endpoint. An offered bound batch keeps w and one Δ a
// group: no m1 half, no t buffer.
func TestAnswerRefusesOutOfStep(t *testing.T) {
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(59))
	const m, per = 12, 4
	pairs, delta := groupedPairs(rng, m, per)
	choices := randomChoices(rng, m)
	// refused answers sb and rb (nil: no receiver call) on endpoints cut
	// off from the link, so a call that is not refused fails at once.
	refused := func(what string, sb *SenderPads, rb *ReceiverPads) {
		t.Helper()
		sc, rc, cut := s.conn, r.conn, &cutLink{}
		s.conn, r.conn = cut, cut
		errs := []error{s.SendPrecomputed(sb)}
		if rb != nil {
			_, err := r.ReceivePrecomputed(rb, choices)
			errs = append(errs, err)
		}
		s.conn, r.conn = sc, rc
		for _, err := range errs {
			if err == nil || cut.tries != 0 {
				t.Fatalf("%s: answers returned %v after %d frames tried, want refusals before any", what, errs, cut.tries)
			}
		}
	}
	// both runs the sender's step on a goroutine and the receiver's here.
	both := func(send func() error, recv func() error) {
		t.Helper()
		errCh := make(chan error, 1)
		go func() { errCh <- send() }()
		if err := recv(); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	for _, x0 := range [][]Message{nil, zeroLabels(pairs)} {
		var sb *SenderPads
		var rb *ReceiverPads
		both(func() (err error) { sb, err = s.ReceivePads(m); return },
			func() (err error) { rb, err = r.SendChoices(choices); return })
		refused("not offered", sb, rb)
		both(func() error { return s.SendOffsets(sb, x0, delta, per) },
			func() error { _, err := r.ReceiveOffsets(rb); return err })
		if x0 == nil {
			refused("pads as labels", sb, nil)
			continue
		}
		if len(sb.pads) != m || cap(sb.pads) != m || len(sb.delta) != m/per || sb.t != nil || sb.SizeBytes() != KeySize*(m+m/per) {
			t.Fatalf("bound batch keeps %d of %d pads, %d offsets, %d t bytes (%d B), want %d pads, %d offsets, no t",
				len(sb.pads), cap(sb.pads), len(sb.delta), len(sb.t), sb.SizeBytes(), m, m/per)
		}
		var got []Message
		both(func() error { return s.SendPrecomputed(sb) },
			func() (err error) { got, err = r.ReceivePrecomputed(rb, choices); return })
		checkTransfer(t, pairs, choices, got)
		refused("answered", sb, rb)
	}
	_, delta = groupedPairs(rng, 20, 5)
	runPads(t, s, r, randomChoices(rng, 20), delta, 5)
}

// FuzzExtensionFrames feeds hostile frames — u and d to a sender, t and z to
// a receiver — to both endpoints through three calls each, drawn from
// every kind of batch: chosen, pads-as-labels, and bound-then-answered. Every
// call returns nil or a *FrameSizeError, never panics, and after the first
// failure every call returns that error without reading a frame.
func FuzzExtensionFrames(f *testing.F) {
	for _, m := range []int{1, 9, 40} {
		mBytes := (m + 7) / 8
		u, t, d := make([]byte, kappa*mBytes), make([]byte, KeySize*m), make([]byte, mBytes)
		for op := range uint8(27) {
			f.Add(uint16(m-1), op, u, d)
			f.Add(uint16(m-1), op, t, t)
		}
		f.Add(uint16(m-1), uint8(4), u[1:], d)
		f.Add(uint16(m-1), uint8(13), t, append(t, 0))
		f.Add(uint16(m-1), uint8(8), u, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, m16 uint16, op uint8, a, b []byte) {
		m := 1 + int(m16%320)
		pairs, choices := make([][2]Message, m), make([]bool, m)
		for j := range choices {
			choices[j] = j%3 == 1
		}
		// Three calls read at most six frames: a, then b for the rest.
		script := func() *scripted {
			return &scripted{script: []func([][]byte) []byte{frame(a), frame(b), frame(b), frame(b), frame(b), frame(b)}}
		}
		sc, rc := script(), script()
		s := newSender(sc, &SenderState{}, []byte("fuzz"))
		r := newReceiver(rc, &ReceiverState{}, []byte("fuzz"))
		sendOps := []func() error{
			func() error { return s.Send(pairs) },
			func() error {
				b, err := s.ReceivePads(m)
				if err != nil {
					return err
				}
				return s.SendOffsets(b, nil, offsets(pairs), 1)
			},
			func() error {
				b, err := offer(s, pairs)
				if err != nil {
					return err
				}
				return s.SendPrecomputed(b)
			},
		}
		recvOps := []func() error{
			func() error { _, err := r.Receive(choices); return err },
			func() error {
				b, err := r.SendChoices(choices)
				if err != nil {
					return err
				}
				_, err = r.ReceiveOffsets(b)
				return err
			},
			func() error {
				b, err := openRandom(r, m, 1)
				if err != nil {
					return err
				}
				_, err = r.ReceivePrecomputed(b, choices)
				return err
			},
		}
		for _, side := range []struct {
			name string
			ops  []func() error
			conn *scripted
		}{{"sender", sendOps, sc}, {"receiver", recvOps, rc}} {
			var first error
			for k, i := 0, int(op); k < 3; k, i = k+1, i/3 {
				left := len(side.conn.script)
				err := side.ops[i%3]()
				if first != nil {
					if err != first || len(side.conn.script) != left {
						t.Fatalf("%s call %d after a failure: %v, %d frames read, want the first error and none", side.name, k, err, left-len(side.conn.script))
					}
					continue
				}
				var fe *FrameSizeError
				if err != nil && !errors.As(err, &fe) {
					t.Fatalf("%s call %d: %v, want nil or a FrameSizeError", side.name, k, err)
				}
				first = err
			}
		}
	})
}
