package ot

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"privinf/internal/transport"
)

// runRows runs one rows-as-labels batch on both endpoints: the receiver
// sends u and the sender takes its rows. It returns the sender's zero
// labels and the receiver's rows.
func runRows(t *testing.T, s *ExtSender, r *ExtReceiver, choices []bool) ([]Message, []Message) {
	t.Helper()
	type res struct {
		zero []Message
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		b, err := s.ReceivePads(len(choices))
		ch <- res{b.Zero(), err}
	}()
	rb, err := r.SendChoices(choices)
	if err != nil {
		t.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	return sr.zero, rb.Rows()
}

// TestPadsAreChosenOTZeroLabels: a rows-as-labels batch is the chosen OT
// on the same choices before its hash, byte for byte. A chosen-OT pair on
// the same base-OT state, run through batches of the same sizes, is the
// oracle, fresh and resumed: the u frames are equal, the sender sends
// nothing, its zero label q_j hashes under the OT index to the chosen OT's
// pad m0 = z_j ⊕ x_j^0, and the receiver holds q_j ⊕ c·s for both values
// of its choice c. The committed states.bin cannot be resumed for it: its
// s has lsb 0 (byte 0 is 0x1e), so ResumeSender refuses it.
func TestPadsAreChosenOTZeroLabels(t *testing.T) {
	if gs, _ := goldenStates(t); gs.Resumable() {
		t.Fatal("states.bin's s has its lsb set")
	} else if _, err := ResumeSender(&cutLink{}, gs, []byte("rows")); !errors.Is(err, ErrColourBit) {
		t.Fatalf("resuming states.bin's sender: %v, want ErrColourBit", err)
	}
	s0, r0 := setupExtension(t)
	ss, rs := s0.State(), r0.State()
	h := kernelHash()
	for _, nonce := range [][]byte{nil, []byte("pads-vs-chosen")} {
		pair := func() (*ExtSender, *ExtReceiver, *frames, *frames) {
			a, b := transport.Pipe()
			fa, fb := &frames{MsgConn: a}, &frames{MsgConn: b}
			if nonce == nil {
				s, r := masterPair(fa, fb, ss, rs)
				return s, r, fa, fb
			}
			s, r := resumePair(t, ss, rs, nonce)
			s.conn, r.conn = fa, fb
			return s, r, fa, fb
		}
		cs, cr, csf, crf := pair()
		ps, pr, psf, prf := pair()
		rng := rand.New(rand.NewSource(57))
		var index uint64
		for i, bc := range []struct {
			m    int
			fill int // -1: random choices, else every choice is fill == 1
		}{{1, 1}, {9, -1}, {40, 0}, {40, 1}, {130, -1}, {5120, -1}} {
			choices := randomChoices(rng, bc.m)
			for j := range choices {
				if bc.fill >= 0 {
					choices[j] = bc.fill == 1
				}
			}
			pairs := randomPairs(rng, bc.m)
			runBatch(t, cs, cr, pairs, choices)
			zero, got := runRows(t, ps, pr, choices)

			if !bytes.Equal(prf.sent[i], crf.sent[i]) {
				t.Fatalf("resumed=%v m=%d: u frame differs from the chosen OT's", nonce != nil, bc.m)
			}
			if len(psf.sent) != 0 {
				t.Fatalf("resumed=%v m=%d: the sender sent %d frames, want none", nonce != nil, bc.m, len(psf.sent))
			}
			zf := csf.sent[2*i+1]
			for j := range choices {
				var m0 Message
				xor(&m0, (*Message)(zf[KeySize*j:]), &pairs[j][0])
				if h(index+uint64(j), zero[j]) != m0 {
					t.Fatalf("resumed=%v m=%d OT %d: zero label is not the chosen OT's pad m0 before the hash", nonce != nil, bc.m, j)
				}
			}
			checkLabels(t, ps.Delta(), zero, choices, got)
			index += uint64(bc.m)
		}
	}
}

// TestBindChecksBatch: pads that do not cover a batch, or a second Bind, are
// refused, and the refusal poisons nothing: the batch binds once after a
// refusal, and the next batch runs.
func TestBindChecksBatch(t *testing.T) {
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(58))
	const m = 12
	errCh := make(chan error, 1)
	go func() {
		b, err := s.ReceivePads(m)
		if err != nil {
			errCh <- err
			return
		}
		for _, y := range [][]byte{nil, randomPads(m-1, 1), randomPads(m+1, 1), randomPads(m, 1)[1:]} {
			if _, err := b.Bind(y); err == nil {
				errCh <- errors.New("pads that do not cover the batch were bound")
				return
			}
		}
		if x0, err := b.Bind(randomPads(m, 1)); err != nil || len(x0) != m || b.Zero() != nil {
			errCh <- errors.New("a batch did not bind, or kept its rows")
			return
		}
		if _, err := b.Bind(randomPads(m, 1)); err == nil {
			errCh <- errors.New("a batch was bound twice")
			return
		}
		errCh <- nil
	}()
	if _, err := r.SendChoices(randomChoices(rng, m)); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	zero, got := runRows(t, s, r, randomChoices(rng, 20))
	if len(zero) != 20 || len(got) != 20 {
		t.Fatal("the batch after the refusals did not run")
	}
}

// cutLink is a connection that counts the frames an endpoint tries to move
// and moves none.
type cutLink struct {
	transport.MsgConn
	tries int
}

func (c *cutLink) Send([]byte) error     { c.tries++; return errors.New("cut link") }
func (c *cutLink) Recv() ([]byte, error) { c.tries++; return nil, errors.New("cut link") }

// TestAnswerRefusesOutOfStep: only a bound batch is answered, once, on
// pads that cover it. SendPrecomputed refuses a batch whose rows are its
// labels (its answer, z = d·s, would give s away), an answered one and
// pads of the wrong length; ReceivePrecomputed refuses an answered batch
// and choices of the wrong length. Each refusal comes before a frame
// moves and does not poison the endpoint. A bound sender batch keeps
// nothing.
func TestAnswerRefusesOutOfStep(t *testing.T) {
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(59))
	const m = 12
	choices := randomChoices(rng, m)
	// refused runs each call on endpoints cut off from the link, so a call
	// that is not refused fails at once.
	refused := func(what string, calls ...func() error) {
		t.Helper()
		sc, rc, cut := s.conn, r.conn, &cutLink{}
		s.conn, r.conn = cut, cut
		defer func() { s.conn, r.conn = sc, rc }()
		for i, call := range calls {
			if err := call(); err == nil || cut.tries != 0 {
				t.Fatalf("%s: call %d returned %v after %d frames tried, want a refusal before any", what, i, err, cut.tries)
			}
		}
	}

	type res struct {
		b   *SenderPads
		err error
	}
	ch := make(chan res, 1)
	go func() { b, err := s.ReceivePads(m); ch <- res{b, err} }()
	if _, err := r.SendChoices(choices); err != nil {
		t.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	refused("rows as labels", func() error { return s.SendPrecomputed(sr.b, randomPads(m, 1)) })

	bt := precompute(t, s, r, m, 2)
	if bt.sb.SizeBytes() != 0 || bt.sb.Zero() != nil {
		t.Fatalf("a bound batch keeps %d bytes", bt.sb.SizeBytes())
	}
	refused("short pads or choices",
		func() error { return s.SendPrecomputed(bt.sb, bt.y[KeySize:]) },
		func() error { _, err := r.ReceivePrecomputed(bt.rb, choices[1:]); return err })
	runPrecomputed(t, s, r, bt, choices)
	refused("answered",
		func() error { return s.SendPrecomputed(bt.sb, bt.y) },
		func() error { _, err := r.ReceivePrecomputed(bt.rb, choices); return err })
	runPrecomputed(t, s, r, precompute(t, s, r, 20, 3), randomChoices(rng, 20))
}

// FuzzExtensionFrames feeds hostile frames — u and d to a sender, t and z to
// a receiver — to both endpoints through three calls each, drawn from
// every kind of batch: chosen, rows-as-labels, and bound-then-answered.
// Every call returns nil or a *FrameSizeError, never panics, and after the
// first failure every call returns that error without reading a frame.
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
		s := newSender(sc, &SenderState{sBlock: Message{1}}, []byte("fuzz"))
		r := newReceiver(rc, &ReceiverState{}, []byte("fuzz"))
		sendOps := []func() error{
			func() error { return s.Send(pairs) },
			func() error { _, err := s.ReceivePads(m); return err },
			func() error {
				y := make([]byte, KeySize*m)
				b, _, err := offer(s, y)
				if err != nil {
					return err
				}
				return s.SendPrecomputed(b, y)
			},
		}
		recvOps := []func() error{
			func() error { _, err := r.Receive(choices); return err },
			func() error { _, err := r.SendChoices(choices); return err },
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
